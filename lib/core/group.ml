module Engine = Resoc_des.Engine
module Behavior = Resoc_fault.Behavior
module Stats = Resoc_repl.Stats
module Transport = Resoc_repl.Transport
module Register = Resoc_hw.Register
module Usig = Resoc_hybrid.Usig
module Pbft = Resoc_repl.Pbft
module Minbft = Resoc_repl.Minbft
module A2m_bft = Resoc_repl.A2m_bft
module Cheapbft = Resoc_repl.Cheapbft
module Paxos = Resoc_repl.Paxos
module Primary_backup = Resoc_repl.Primary_backup
module Checkpoint = Resoc_repl.Checkpoint

type t = {
  protocol : string;
  n_replicas : int;
  f : int;
  submit : client:int -> payload:int64 -> unit;
  stats : unit -> Stats.t;
  replica_state : replica:int -> int64;
  set_replica_state : replica:int -> int64 -> unit;
  set_offline : replica:int -> unit;
  set_online : replica:int -> unit;
  messages : unit -> int;
  bytes : unit -> int;
  usig_of : (replica:int -> Usig.t) option;
}

type transport_kind = Hub of { latency : int } | On_soc of Soc.t

type spec = {
  kind : [ `Pbft | `Minbft | `A2m_bft | `Cheapbft | `Paxos | `Primary_backup ];
  f : int;
  n_clients : int;
  request_timeout : int;
  vc_timeout : int;
  usig_protection : Register.protection;
  batch_window : int;  (* hybrid-BFT protocols only; 0 = no batching *)
  checkpoint : Checkpoint.config option;  (* None = legacy fixed-retention model *)
  multicast : bool;  (* route replica fan-outs through the fabric's multicast *)
  batching : Resoc_repl.Types.batching option;
      (* cross-protocol request batching + pipelining; None = legacy *)
  behaviors : Behavior.t array option;
}

let default_spec =
  {
    kind = `Minbft;
    f = 1;
    n_clients = 2;
    request_timeout = 4000;
    vc_timeout = 2500;
    usig_protection = Register.Secded;
    batch_window = 0;
    checkpoint = None;
    multicast = false;
    batching = None;
    behaviors = None;
  }

let n_replicas_of spec =
  match spec.kind with
  | `Pbft -> (3 * spec.f) + 1
  | `Minbft | `A2m_bft | `Cheapbft | `Paxos -> (2 * spec.f) + 1
  | `Primary_backup -> spec.f + 1

(* Nominal message sizes: BFT messages carry digests and MACs; MinBFT adds
   UI certificates; primary-backup updates carry state deltas. *)
(* A2M attestations additionally carry the chain digest: heavier than UIs. *)
let message_bytes = function
  | `Pbft -> 64
  | `Minbft -> 96
  | `A2m_bft -> 112
  | `Cheapbft -> 96
  | `Paxos -> 48
  | `Primary_backup -> 80

(* Wire bytes for a batched flight derive from its content: the base
   protocol message plus one payload's worth per extra request — one
   header/certificate amortized over the whole batch. *)
let batch_bytes ~base ~len = base + (16 * (max 0 (len - 1)))

let make_fabric engine kind ~size_of ~n_endpoints =
  match kind with
  | Hub { latency } -> Transport.hub engine ~n:n_endpoints ~latency ()
  | On_soc soc ->
    let placement = Soc.spread_placement soc ~n:n_endpoints in
    Soc.noc_fabric soc ~placement ~size_of

let build engine kind spec =
  let n = n_replicas_of spec in
  let n_endpoints = n + spec.n_clients in
  let bytes = message_bytes spec.kind in
  let batched = spec.batching <> None in
  let size_of_batch payload = batch_bytes ~base:bytes ~len:(List.length payload) in
  (* CheapBFT and primary-backup only churn when they can rejoin by
     certified transfer; without checkpoints their replicas stay up. *)
  let with_checkpoint f = match spec.checkpoint with Some _ -> f | None -> fun ~replica:_ -> () in
  let group ~protocol (fabric : _ Transport.fabric) ~submit ~stats ~replica_state ~set_replica_state
      ~set_offline ~set_online ~usig_of =
    {
      protocol;
      n_replicas = n;
      f = spec.f;
      submit;
      stats;
      replica_state;
      set_replica_state;
      set_offline;
      set_online;
      messages = fabric.Transport.messages_sent;
      bytes = fabric.Transport.bytes_sent;
      usig_of;
    }
  in
  match spec.kind with
  | `Pbft ->
    let fabric =
      make_fabric engine kind ~n_endpoints ~size_of:(function
        | Pbft.State_chunk c -> Checkpoint.chunk_bytes c
        | Pbft.Pre_prepare_b { requests; _ } -> size_of_batch requests
        | _ -> bytes)
    in
    let config =
      {
        Pbft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Pbft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"pbft" fabric
      ~submit:(fun ~client ~payload -> Pbft.submit sys ~client ~payload)
      ~stats:(fun () -> Pbft.stats sys)
      ~replica_state:(fun ~replica -> Pbft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Pbft.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> Pbft.set_offline sys ~replica)
      ~set_online:(fun ~replica -> Pbft.set_online sys ~replica)
      ~usig_of:None
  | `Minbft ->
    (* Hybrid Prepare/Commit always carry a request list (legacy window
       batching); only charge content-derived bytes under the new batching
       config so legacy runs (A8 included) keep their flat accounting. *)
    let fabric =
      make_fabric engine kind ~n_endpoints ~size_of:(function
        | Minbft.State_chunk c -> Checkpoint.chunk_bytes c
        | (Minbft.Prepare { requests; _ } | Minbft.Commit { requests; _ }) when batched ->
          size_of_batch requests
        | _ -> bytes)
    in
    let config =
      {
        Minbft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        usig_protection = spec.usig_protection;
        keychain_master = 0xC0FFEEL;
        batch_window = spec.batch_window;
        max_batch = 16;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Minbft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"minbft" fabric
      ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload)
      ~stats:(fun () -> Minbft.stats sys)
      ~replica_state:(fun ~replica -> Minbft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Minbft.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> Minbft.set_offline sys ~replica)
      ~set_online:(fun ~replica -> Minbft.set_online sys ~replica)
      ~usig_of:(Some (fun ~replica -> Minbft.usig sys ~replica))
  | `A2m_bft ->
    let fabric =
      make_fabric engine kind ~n_endpoints ~size_of:(function
        | A2m_bft.State_chunk c -> Checkpoint.chunk_bytes c
        | (A2m_bft.Prepare { requests; _ } | A2m_bft.Commit { requests; _ }) when batched ->
          size_of_batch requests
        | _ -> bytes)
    in
    let config =
      {
        A2m_bft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        usig_protection = spec.usig_protection;
        keychain_master = 0xC0FFEEL;
        batch_window = spec.batch_window;
        max_batch = 16;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = A2m_bft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"a2m-bft" fabric
      ~submit:(fun ~client ~payload -> A2m_bft.submit sys ~client ~payload)
      ~stats:(fun () -> A2m_bft.stats sys)
      ~replica_state:(fun ~replica -> A2m_bft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> A2m_bft.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> A2m_bft.set_offline sys ~replica)
      ~set_online:(fun ~replica -> A2m_bft.set_online sys ~replica)
      ~usig_of:None
  | `Cheapbft ->
    let fabric =
      make_fabric engine kind ~n_endpoints ~size_of:(function
        | Cheapbft.State_chunk c -> Checkpoint.chunk_bytes c
        | Cheapbft.Prepare_b { requests; _ } | Cheapbft.Commit_b { requests; _ } ->
          size_of_batch requests
        | _ -> bytes)
    in
    let config =
      {
        Cheapbft.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        vc_timeout = spec.vc_timeout;
        update_period = 2_000;
        trinc_protection = spec.usig_protection;
        keychain_master = 0x17E4C0L;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Cheapbft.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"cheapbft" fabric
      ~submit:(fun ~client ~payload -> Cheapbft.submit sys ~client ~payload)
      ~stats:(fun () -> Cheapbft.stats sys)
      ~replica_state:(fun ~replica -> Cheapbft.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica:_ _ -> ())
      ~set_offline:(with_checkpoint (fun ~replica -> Cheapbft.set_offline sys ~replica))
      ~set_online:(with_checkpoint (fun ~replica -> Cheapbft.set_online sys ~replica))
      ~usig_of:None
  | `Paxos ->
    let fabric =
      make_fabric engine kind ~n_endpoints ~size_of:(function
        | Paxos.State_chunk c -> Checkpoint.chunk_bytes c
        | Paxos.Accept_b { requests; _ } -> size_of_batch requests
        | _ -> bytes)
    in
    let config =
      {
        Paxos.f = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        election_timeout = spec.vc_timeout;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Paxos.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"paxos" fabric
      ~submit:(fun ~client ~payload -> Paxos.submit sys ~client ~payload)
      ~stats:(fun () -> Paxos.stats sys)
      ~replica_state:(fun ~replica -> Paxos.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Paxos.set_replica_state sys ~replica v)
      ~set_offline:(fun ~replica -> Paxos.set_offline sys ~replica)
      ~set_online:(fun ~replica -> Paxos.set_online sys ~replica)
      ~usig_of:None
  | `Primary_backup ->
    let fabric =
      make_fabric engine kind ~n_endpoints ~size_of:(function
        | Primary_backup.State_chunk c -> Checkpoint.chunk_bytes c
        | Primary_backup.Update_b { replies; _ } -> size_of_batch replies
        | _ -> bytes)
    in
    let config =
      {
        Primary_backup.n_backups = spec.f;
        n_clients = spec.n_clients;
        request_timeout = spec.request_timeout;
        heartbeat_period = max 1 (spec.vc_timeout / 5);
        detection_timeout = spec.vc_timeout;
        checkpoint = spec.checkpoint;
        multicast = spec.multicast;
        batching = spec.batching;
      }
    in
    let sys = Primary_backup.start engine fabric config ?behaviors:spec.behaviors () in
    group ~protocol:"primary-backup" fabric
      ~submit:(fun ~client ~payload -> Primary_backup.submit sys ~client ~payload)
      ~stats:(fun () -> Primary_backup.stats sys)
      ~replica_state:(fun ~replica -> Primary_backup.replica_state sys ~replica)
      ~set_replica_state:(fun ~replica v -> Primary_backup.set_replica_state sys ~replica v)
      ~set_offline:(with_checkpoint (fun ~replica -> Primary_backup.set_offline sys ~replica))
      ~set_online:(with_checkpoint (fun ~replica -> Primary_backup.set_online sys ~replica))
      ~usig_of:None
