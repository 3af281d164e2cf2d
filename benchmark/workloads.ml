(* The four in-process workloads. A repetition builds a fixed list of
   systems (one replication group each, on its own engine), drives every
   one to completion and records its outcome. System [i] of a repetition
   is seeded with [Rng.derive seed i], so every repetition of a run
   replays identical inputs and must reproduce identical outcomes. *)

module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Histogram = Resoc_des.Metrics.Histogram
module Group = Resoc_core.Group
module Soc = Resoc_core.Soc
module Network = Resoc_noc.Network
module Stats = Resoc_repl.Stats
module Checkpoint = Resoc_repl.Checkpoint
module Link_fault = Resoc_fault.Link_fault
module Generator = Resoc_workload.Generator
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Check = Resoc_check.Check

type kind = [ `Pbft | `Minbft | `A2m_bft | `Cheapbft | `Paxos | `Primary_backup ]

let all_kinds : kind list = [ `Pbft; `Minbft; `A2m_bft; `Cheapbft; `Paxos; `Primary_backup ]

(* Position in [Catalog.kinds], whose names are the protocols' own. *)
let kind_index (k : kind) =
  let rec find i = function
    | [] -> assert false
    | k' :: rest -> if k' = k then i else find (i + 1) rest
  in
  find 0 all_kinds

let kind_name k = List.nth Catalog.kinds (kind_index k)

type load =
  | Closed of { per_client : int }  (** [Generator.burst]: each client queues this many. *)
  | Open of { mean_interarrival : float; window : int }
      (** [Generator.poisson] arrivals over [0, window), then drain. *)

type fabric = Hub | Mesh of { side : int; noc : Network.config }

type t = {
  name : string;
  kinds : kind list;
  f : int;
  clients : int;
  rounds : int;  (** Systems per repetition = rounds * kinds. *)
  fabric : fabric;
  batching : Resoc_repl.Types.batching option;
  resilient : bool;  (** Checkpoints and link upsets. *)
  load : load;
  horizon : int;  (** Simulated cycles after which unfinished requests count as failed. *)
}

let agree_hub =
  {
    name = "agree-hub";
    kinds = all_kinds;
    f = 1;
    clients = 16;
    rounds = 16;
    fabric = Hub;
    batching = None;
    resilient = false;
    load = Closed { per_client = 64 };
    horizon = 20_000_000;
  }

let agree_batch =
  {
    agree_hub with
    name = "agree-batch";
    batching = Some { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 };
  }

let mesh =
  {
    agree_hub with
    name = "mesh";
    kinds = [ `Pbft; `Minbft ];
    f = 3;
    rounds = 4;
    fabric = Mesh { side = 8; noc = Network.default_config };
  }

(* Open loop: one arrival per 200 cycles on average over the whole group
   (5 per kcycle), for 240k cycles, so every system sees about 1200
   requests. At this rate no protocol's clients fall behind
   (workload.backlog_per_kreq stays near 0), so the drain after the window
   is short; arrivals still queued at the horizon count as failed. The
   protocols send unicast: see [link_faults]. *)
let faulty_mesh =
  {
    name = "faulty-mesh";
    kinds = all_kinds;
    f = 1;
    clients = 8;
    rounds = 8;
    fabric = Mesh { side = 6; noc = { Network.default_config with routing = Network.Adaptive } };
    batching = None;
    resilient = true;
    load = Open { mean_interarrival = 200.0; window = 240_000 };
    horizon = 2_000_000;
  }

let all = [ agree_hub; agree_batch; mesh; faulty_mesh ]

(* The same workload at a fraction of its size, for correctness passes. *)
let shrink w ~by =
  let load =
    match w.load with
    | Closed { per_client } -> Closed { per_client = max 1 (per_client / by) }
    | Open o -> Open { o with window = max 1 (o.window / by) }
  in
  { w with rounds = max 1 (w.rounds / by); load }

let systems w = w.rounds * List.length w.kinds

let checkpoint = Some { Checkpoint.interval = 32; window = 8; chunk = 8 }

(* The resilient stack as far as it runs clean on every seed. Periodic
   rejuvenation breaks agreement under the checker or stalls it, protocol
   multicast under upsets floods PBFT's event queue and draws dissenting
   CheapBFT replies, and E11's 2e-5 upset rate stalls PBFT and CheapBFT;
   README.md, "Findings", has the measurements. Replicas cut off by upsets
   can still fall behind and catch up by certified state transfer, though
   at this rate that happens only a few times per repetition, if at all. *)
let link_faults =
  {
    Link_fault.upset_rate = 2e-6;
    upset_repair_mean = 2_500.0;
    wearout_shape = 2.0;
    wearout_scale = 0.0;
  }

type builder = Engine.t -> Group.transport_kind -> Group.spec -> Group.t

type system = {
  kind : kind;
  engine : Engine.t;
  group : Group.t;
  arrivals : int ref;
  link_fault : Link_fault.t option;
}

(* Host time spent constructing systems, split by layer. *)
type setup_clock = { mutable soc_ns : int; mutable group_ns : int; mutable total_ns : int }

let setup_clock () = { soc_ns = 0; group_ns = 0; total_ns = 0 }

let build ~(builder : builder) ~clock w ~seed i =
  let t0 = Measure.now_ns () in
  let kind = List.nth w.kinds (i mod List.length w.kinds) in
  let seed = Rng.derive seed i in
  let engine, soc, transport =
    match w.fabric with
    | Hub -> (Engine.create ~seed (), None, Group.Hub { latency = 5 })
    | Mesh { side; noc } ->
      let soc =
        Soc.create { Soc.default_config with mesh_width = side; mesh_height = side; noc; seed }
      in
      (Soc.engine soc, Some soc, Group.On_soc soc)
  in
  let t1 = Measure.now_ns () in
  let spec =
    {
      Group.default_spec with
      kind;
      f = w.f;
      n_clients = w.clients;
      batching = w.batching;
      checkpoint = (if w.resilient then checkpoint else None);
    }
  in
  let group = builder engine transport spec in
  let t2 = Measure.now_ns () in
  let link_fault =
    match (w.resilient, soc) with
    | true, Some soc -> Some (Link_fault.start engine (Soc.rng soc) (Soc.mesh soc) link_faults)
    | _ -> None
  in
  let t3 = Measure.now_ns () in
  clock.soc_ns <- clock.soc_ns + (t1 - t0);
  clock.group_ns <- clock.group_ns + (t2 - t1);
  clock.total_ns <- clock.total_ns + (t3 - t0);
  { kind; engine; group; arrivals = ref 0; link_fault }

(* Queue the workload's requests. Open-loop arrivals are counted here, on
   the way into [submit], because a client's own counters only see a
   request once it leaves the client queue. *)
let start_load w sys =
  let submit = sys.group.Group.submit in
  match w.load with
  | Closed { per_client } -> Generator.burst ~n_per_client:per_client ~n_clients:w.clients ~submit
  | Open { mean_interarrival; window } ->
    let rng = Rng.split (Engine.rng sys.engine) in
    Generator.poisson sys.engine rng ~mean_interarrival ~until:window ~n_clients:w.clients
      ~submit:(fun ~client ~payload ->
        incr sys.arrivals;
        submit ~client ~payload)
      ()

type outcome = {
  o_kind : kind;
  attempted : int;
  completed : int;
  wrong : int;
  events : int;
  clock : int;
  lat_n : int;
  lat_mean : float;
  lat_p50 : float;
  lat_p99 : float;
  messages : int;
  bytes : int;
  backlog : int;  (** Open loop: arrivals not yet started when the window closed. *)
  checkpoints : int;
  transfers : int;
  transfer_bytes : int;
  upsets : int;
  counters : (string * int) list;  (** Obs registry scalars; empty unless metrics are on. *)
}

let expected w sys =
  match w.load with Closed { per_client } -> per_client * w.clients | Open _ -> !(sys.arrivals)

let step = 4_096

(* Run until every request is answered or the horizon passes. Periodic
   timers (heartbeats, link upsets) never drain the queue, so completion,
   not an empty queue, ends the run. *)
let drive w sys =
  let stats () = sys.group.Group.stats () in
  let backlog =
    match w.load with
    | Closed _ -> 0
    | Open { window; _ } ->
      Engine.run ~until:window sys.engine;
      !(sys.arrivals) - (stats ()).Stats.submitted
  in
  while (stats ()).Stats.completed < expected w sys && Engine.now sys.engine < w.horizon do
    Engine.run ~until:(min w.horizon (Engine.now sys.engine + step)) sys.engine
  done;
  let s = stats () in
  let counters =
    if !Obs.metrics_on then begin
      let acc = Hashtbl.create 64 in
      Registry.iter_scalars (Engine.obs sys.engine).Obs.metrics (fun name ~gauge:_ v ->
          let name = if String.starts_with ~prefix:"noc.link." name then "noc.hops" else name in
          Hashtbl.replace acc name (v + Option.value ~default:0 (Hashtbl.find_opt acc name)));
      List.sort compare (List.of_seq (Hashtbl.to_seq acc))
    end
    else []
  in
  {
    o_kind = sys.kind;
    attempted = expected w sys;
    completed = s.Stats.completed;
    wrong = s.Stats.wrong_replies;
    events = Engine.events_processed sys.engine;
    clock = Engine.now sys.engine;
    lat_n = Histogram.count s.Stats.latency;
    lat_mean = Histogram.mean s.Stats.latency;
    lat_p50 = Histogram.percentile s.Stats.latency 50.0;
    lat_p99 = Histogram.percentile s.Stats.latency 99.0;
    messages = sys.group.Group.messages ();
    bytes = sys.group.Group.bytes ();
    backlog;
    checkpoints = s.Stats.checkpoints;
    transfers = s.Stats.state_transfers;
    transfer_bytes = s.Stats.transfer_bytes;
    upsets = Option.fold ~none:0 ~some:Link_fault.upsets sys.link_fault;
    counters;
  }

(* A request fails when it is still unanswered at the horizon. A reply
   that disagrees with the quorum ([wrong]) is a replica fault the client
   masks: it is counted (repl.dissenting_replies) and fingerprinted, but
   the request still got the quorum's result. *)
let failed o = o.attempted - o.completed

(* What must not change between two runs of the same inputs: simulated
   events, final clock, requests, latency, messages and bytes. *)
let fingerprint outcomes =
  let line o =
    Printf.sprintf "%s e=%d t=%d c=%d/%d w=%d n=%d mean=%h p50=%h p99=%h m=%d b=%d\n"
      (kind_name o.o_kind) o.events o.clock o.completed o.attempted o.wrong o.lat_n o.lat_mean
      o.lat_p50 o.lat_p99 o.messages o.bytes
  in
  Digest.to_hex (Digest.string (String.concat "" (List.map line outcomes)))

type rep = {
  outcomes : outcome list;
  wall_s : float;  (** Construction, load and run of every system. *)
  system_s : float array;  (** The same, per system. *)
  drive_s : float array;  (** [Engine.run] alone, per system. *)
  wrapped_s : float;  (** Traced runs: span self time while driving. *)
}

let run_rep ?tracer ~builder w ~seed =
  let t0 = Measure.now_ns () in
  let n = systems w in
  let system_s = Array.make n 0.0 and drive_s = Array.make n 0.0 in
  let wrapped_ns = ref 0 in
  let clock = setup_clock () in
  let seconds ns = float_of_int ns *. 1e-9 in
  let outcomes =
    List.init n (fun i ->
        if !Obs.metrics_on then Obs.begin_replicate ();
        let s0 = Measure.now_ns () in
        let sys = build ~builder ~clock w ~seed i in
        start_load w sys;
        let spans0 = Option.fold ~none:0 ~some:Tracer.total_self_ns tracer in
        let d0 = Measure.now_ns () in
        let o = drive w sys in
        let d1 = Measure.now_ns () in
        let spans1 = Option.fold ~none:0 ~some:Tracer.total_self_ns tracer in
        wrapped_ns := !wrapped_ns + (spans1 - spans0);
        drive_s.(i) <- seconds (d1 - d0);
        system_s.(i) <- seconds (d1 - s0);
        o)
  in
  {
    outcomes;
    wall_s = Measure.seconds_since t0;
    system_s;
    drive_s;
    wrapped_s = seconds !wrapped_ns;
  }

(* Construct one repetition's systems without running them, adding the
   time to [clock]. *)
let setup_rep ~builder ~clock w ~seed =
  for i = 0 to systems w - 1 do
    ignore (Sys.opaque_identity (build ~builder ~clock w ~seed i))
  done

(* One repetition under the invariant checker; a violation fails every
   request of the system that tripped it. *)
let check_rep w ~seed =
  Check.enable ();
  let clock = setup_clock () in
  Fun.protect ~finally:Check.disable (fun () ->
      List.init (systems w) (fun i ->
          Check.begin_replicate ();
          let sys = build ~builder:Group.build ~clock w ~seed i in
          start_load w sys;
          match drive w sys with
          | o -> (o.attempted, failed o, None)
          | exception Check.Violation msg -> (expected w sys, expected w sys, Some msg)))
