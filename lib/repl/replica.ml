module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check

type 'msg kit = {
  request : Types.request -> 'msg;
  reply : Types.reply -> 'msg;
  reply_of : 'msg -> Types.reply option;
  checkpoint_vote : int -> Hash.t -> 'msg;
  fetch_state : int -> 'msg;
  state_chunk : Checkpoint.chunk -> 'msg;
}

type spec = {
  label : string;
  protocol : string;
  n : int;
  n_clients : int;
  client_quorum : int;
  request_timeout : int;
  watch_delay : int;
  checkpoint : Checkpoint.config option;
  cp_quorum : int;
  multicast : bool;
  spans : bool;
  count_views : bool;
}

type 'msg t = {
  id : int;
  n : int;
  engine : Engine.t;
  fabric : 'msg Transport.fabric;
  kit : 'msg kit;
  behavior : Behavior.t;
  app : App.t;
  stats : Stats.t;
  obs : Obs.t;
  obs_vc : int;
  chk : int;
  spans : bool;
  count_views : bool;
  mutable online : bool;
  mutable view : int;
  mutable voted : int;
  rounds : Quorum.Rounds.t;
  client_quorum : int;
  cp_quorum : int;
  hooks : 'msg hooks Lazy.t;
  mutable group : 'msg t array;
  all_ids : int array;
  peer_ids : int array;
  mcast : (src:int -> dsts:int array -> n:int -> 'msg -> unit) option;
  pending : Types.request Digest_map.t;
  timers : Engine.handle Digest_map.t;
  watch_delay : int;
  mutable rid_last : int array;
  mutable rid_result : int64 array;
  cp : Checkpoint.t option;
  recover_delay : int;
  mutable recover_timer : Engine.handle option;
  mutable batcher : Batcher.t option;
}

and 'msg hooks = {
  vote : int -> 'msg;
  take_over : view:int -> max_exec:int -> unit;
  progress : unit -> int;
  wipe : unit -> unit;
  adopt_peer : progress:int -> unit;
}

(* The agreement log of the four ordering protocols. The protocol supplies
   its entry type and the accessors below; everything else about ordered
   execution, checkpoints and transfer is shared. *)
type 'e log = {
  ring : 'e Slot_ring.t;  (* seq -> entry, current view only *)
  ordered : int Digest_map.t;  (* request digest -> seq, current view *)
  mutable last_exec : int;
  mutable next_seq : int;
  agreed : 'e -> bool;
  batch : 'e -> Types.request list;
  executed : 'e -> bool;
  executing : seq:int -> 'e -> unit;
  order : Types.request list -> unit;
  voters : unit -> int array;
  serves : unit -> bool;
  installed : unit -> unit;
}

(* Without checkpoints, executed log entries older than this many slots
   are pruned on a fixed retention window; with checkpoints, truncation
   follows the stable low watermark so the suffix can be served to
   recovering replicas. *)
let log_retention = 256

(* Outlier bound for overflow pruning: sequence numbers this far outside
   the live window are corrupt (SEU-flipped counters), never executable,
   and would otherwise accumulate in the overflow array for the run. *)
let prune_margin = 1 lsl 15

let create engine fabric kit (spec : spec) ~id ~behavior ~stats ~chk ~hooks =
  let obs = Engine.obs engine in
  let obs_vc =
    if spec.count_views && !Obs.metrics_on then
      Registry.counter obs.Obs.metrics "repl.view_changes"
    else 0
  in
  let n = spec.n in
  {
    id;
    n;
    engine;
    fabric;
    kit;
    behavior;
    app = App.accumulator ();
    stats;
    obs;
    obs_vc;
    chk;
    spans = spec.spans;
    count_views = spec.count_views;
    online = true;
    view = 0;
    voted = 0;
    rounds = Quorum.Rounds.create ~n ();
    client_quorum = spec.client_quorum;
    cp_quorum = spec.cp_quorum;
    hooks;
    group = [||];
    all_ids = Array.init n Fun.id;
    peer_ids = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
    mcast = (if spec.multicast then fabric.Transport.multicast else None);
    pending = Digest_map.create ~capacity:16 ();
    timers = Digest_map.create ~capacity:16 ();
    watch_delay = spec.watch_delay;
    rid_last = Array.make (n + spec.n_clients) min_int;
    rid_result = Array.make (n + spec.n_clients) 0L;
    cp =
      (match spec.checkpoint with
      | Some c -> Some (Checkpoint.create c ~obs ~quorum:spec.cp_quorum)
      | None -> None);
    recover_delay = spec.request_timeout;
    recover_timer = None;
    batcher = None;
  }

let faulty t = Behavior.is_faulty t.behavior

let hooks t = Lazy.force t.hooks

let primary t view = view mod t.n

let is_primary t = primary t t.view = t.id

let live t = t.online && not (Behavior.is_crashed t.behavior ~now:(Engine.now t.engine))

(* --- behaviour-gated sending --- *)

(* Crashed/offline replicas are mute; Silent Byzantine replicas too;
   Delay holds messages back. Equivocate and Corrupt_execution act
   elsewhere (ordering and replies), so their sends go out as-is. *)
let send t ~dst msg =
  let now = Engine.now t.engine in
  if t.online && not (Behavior.is_crashed t.behavior ~now) then
    match Behavior.active_strategy t.behavior ~now with
    | Some Behavior.Silent -> ()
    | Some (Behavior.Delay d) ->
      ignore (Engine.schedule t.engine ~delay:d (fun () -> t.fabric.Transport.send ~src:t.id ~dst msg))
    | Some Behavior.Equivocate | Some Behavior.Corrupt_execution | None ->
      t.fabric.Transport.send ~src:t.id ~dst msg

(* Fan-outs take the fabric's tree multicast when the replica was built
   with one: a single behaviour gate, then one injection that forks in
   the network instead of [Array.length to_] unicasts. *)
let broadcast t ~to_ msg =
  match t.mcast with
  | Some mc ->
    let now = Engine.now t.engine in
    if t.online && not (Behavior.is_crashed t.behavior ~now) then (
      match Behavior.active_strategy t.behavior ~now with
      | Some Behavior.Silent -> ()
      | Some (Behavior.Delay d) ->
        ignore
          (Engine.schedule t.engine ~delay:d (fun () ->
               mc ~src:t.id ~dsts:to_ ~n:(Array.length to_) msg))
      | Some Behavior.Equivocate | Some Behavior.Corrupt_execution | None ->
        mc ~src:t.id ~dsts:to_ ~n:(Array.length to_) msg)
  | None ->
    for i = 0 to Array.length to_ - 1 do
      send t ~dst:(Array.unsafe_get to_ i) msg
    done

let equivocating t =
  match Behavior.active_strategy t.behavior ~now:(Engine.now t.engine) with
  | Some Behavior.Equivocate -> true
  | Some _ | None -> false

let reply t ~client ~rid result =
  let result =
    match Behavior.active_strategy t.behavior ~now:(Engine.now t.engine) with
    | Some Behavior.Corrupt_execution -> Int64.logxor result 0xBADBADL
    | Some _ | None -> result
  in
  send t ~dst:client (t.kit.reply { Types.client; rid; result; replica = t.id })

(* --- the reply cache --- *)

(* rid bookkeeping lives in parallel arrays indexed by client id; the
   arrays grow on demand since fabrics number clients after replicas. *)
let rid_slot t client =
  let len = Array.length t.rid_last in
  if client >= len then begin
    let ncap = ref (max 8 (2 * len)) in
    while client >= !ncap do
      ncap := 2 * !ncap
    done;
    let nlast = Array.make !ncap min_int in
    Array.blit t.rid_last 0 nlast 0 len;
    let nresult = Array.make !ncap 0L in
    Array.blit t.rid_result 0 nresult 0 len;
    t.rid_last <- nlast;
    t.rid_result <- nresult
  end;
  client

let executed t (request : Types.request) =
  let c = rid_slot t request.Types.client in
  t.rid_last.(c) <> min_int && request.Types.rid <= t.rid_last.(c)

let reply_cached t (request : Types.request) =
  let c = request.Types.client in
  reply t ~client:c ~rid:request.Types.rid t.rid_result.(c)

let record t ~client ~rid result =
  let c = rid_slot t client in
  t.rid_last.(c) <- rid;
  t.rid_result.(c) <- result

(* Exactly-once execution: a request the cache already covers returns
   the cached result instead of running again. *)
let apply t (request : Types.request) =
  let client = request.Types.client and rid = request.Types.rid in
  let c = rid_slot t client in
  if t.rid_last.(c) <> min_int && rid <= t.rid_last.(c) then t.rid_result.(c)
  else begin
    let result = App.execute t.app request.Types.payload in
    t.rid_last.(c) <- rid;
    t.rid_result.(c) <- result;
    result
  end

let rid_reset t = Array.fill t.rid_last 0 (Array.length t.rid_last) min_int

let rid_table t =
  let acc = ref [] in
  for c = Array.length t.rid_last - 1 downto 0 do
    if t.rid_last.(c) <> min_int then acc := (c, (t.rid_last.(c), t.rid_result.(c))) :: !acc
  done;
  !acc

let import_rid_table t table =
  rid_reset t;
  List.iter (fun (client, (rid, result)) -> record t ~client ~rid result) table

let copy_rids t ~from =
  rid_reset t;
  for c = 0 to Array.length from.rid_last - 1 do
    if from.rid_last.(c) <> min_int then record t ~client:c ~rid:from.rid_last.(c) from.rid_result.(c)
  done

(* --- pending requests and their timers --- *)

let cancel_timer t digest =
  let i = Digest_map.index t.timers digest in
  if i >= 0 then begin
    Engine.cancel t.engine (Digest_map.value_at t.timers i);
    Digest_map.remove_at t.timers i
  end

let cancel_timers t =
  Digest_map.iter (fun _ h -> Engine.cancel t.engine h) t.timers;
  Digest_map.reset t.timers

(* --- views and votes --- *)

let view_changed t ~view =
  t.stats.Stats.view_changes <- t.stats.Stats.view_changes + 1;
  if t.count_views then begin
    if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_vc;
    if !Obs.trace_on then
      Ring.instant t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_event ~replica:t.id ~code:Obs.code_view_change)
        ~arg:view
  end

(* Vote for [view] unless this replica already voted that high. *)
let vote t ~view =
  if view > t.voted then begin
    t.voted <- view;
    broadcast t ~to_:t.all_ids ((hooks t).vote view)
  end

(* A request timer fired on a pending request: escalate past views whose
   primary never answered. The [online] guard only matters for timers
   that outlive [set_offline], and none do: it cancels every request
   timer and an offline replica arms none. A crashed replica still
   counts its vote; the send gate mutes it. *)
let expire t = if t.online then vote t ~view:(max t.view t.voted + 1)

(* A vote from [src] for [view], carrying its executed frontier in
   [value]. The thresholds are the ones clients and checkpoints already
   use: [client_quorum] votes include one honest voter, so the timeout
   is genuine and this replica joins; at [cp_quorum] (a certificate) the
   new view's primary takes over from the highest frontier any voter
   reported. *)
let on_vote t ~src ~view ~value =
  if view > t.view then begin
    let voters = Quorum.Rounds.note t.rounds ~current:t.view ~view ~voter:src ~value in
    if voters >= t.client_quorum then vote t ~view;
    if voters >= t.cp_quorum && primary t view = t.id then begin
      let h = hooks t in
      let max_exec =
        Quorum.Rounds.max_value t.rounds ~view ~default:(h.progress ())
      in
      view_changed t ~view;
      h.take_over ~view ~max_exec
    end
  end

(* A new view is adopted only from its own primary, and only forward. *)
let accepts_new_view t ~src ~view = view > t.view && src = primary t view

(* Arm [digest]'s timer unless one runs; when it fires with the request
   still pending, [expire] escalates. *)
let watch t digest =
  if not (Digest_map.mem t.timers digest) then
    Digest_map.set t.timers digest
      (Engine.schedule t.engine ~delay:t.watch_delay (fun () ->
           Digest_map.remove t.timers digest;
           if Digest_map.mem t.pending digest then expire t))

(* Mark [request] pending; returns whether it already was. *)
let admit t (request : Types.request) digest =
  let was_pending = Digest_map.mem t.pending digest in
  if t.spans && !Obs.trace_on && not was_pending then
    Ring.async_begin t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.repl
      ~id:(Obs.repl_request_span ~replica:t.id ~client:request.Types.client ~rid:request.Types.rid)
      ~arg:0;
  Digest_map.set t.pending digest request;
  was_pending

(* Pending requests in (client, rid) order, for a new primary to re-propose. *)
let pending_sorted t =
  let pending = Digest_map.fold (fun _ req acc -> req :: acc) t.pending [] in
  List.sort
    (fun (a : Types.request) b -> compare (a.Types.client, a.Types.rid) (b.Types.client, b.Types.rid))
    pending

(* Per-request execution tail, run for each request of an instance:
   exactly-once via the reply cache, pending/timer cleanup, reply. *)
let execute t (request : Types.request) =
  let result = apply t request in
  let digest = Types.request_digest request in
  Digest_map.remove t.pending digest;
  cancel_timer t digest;
  if t.spans && !Obs.trace_on then
    Ring.async_end t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.repl
      ~id:(Obs.repl_request_span ~replica:t.id ~client:request.Types.client ~rid:request.Types.rid)
      ~arg:0;
  reply t ~client:request.Types.client ~rid:request.Types.rid result

(* --- checker hooks --- *)

let check_window t ~seq =
  match t.cp with
  | Some cp when t.chk >= 0 ->
    Check.exec_window ~session:t.chk ~replica:t.id ~seq ~low:(Checkpoint.low cp)
      ~high:(Checkpoint.high cp) ~faulty:(faulty t)
  | Some _ | None -> ()

let check_batch t ~view ~seq requests =
  let len = List.length requests in
  List.iteri
    (fun pos (req : Types.request) ->
      Check.batch_commit ~session:t.chk ~replica:t.id ~view ~seq ~pos ~len ~client:req.Types.client
        ~rid:req.Types.rid ~faulty:(faulty t))
    requests

(* --- batching --- *)

(* Execution must not pass the checkpoint high watermark. *)
let below_high t seq =
  match t.cp with
  | Some cp when not !Checkpoint.test_ignore_watermarks -> seq <= Checkpoint.high cp
  | Some _ | None -> true

let kick t = match t.batcher with Some b -> Batcher.kick b | None -> ()

(* --- checkpoints and certified state transfer --- *)

let truncate ring cp ~from ~upto =
  for s = from to upto do
    Slot_ring.release ring s
  done;
  Slot_ring.prune_outside ring ~low:(Checkpoint.low cp + 1) ~high:(Checkpoint.high cp + prune_margin)

let cancel_recover_timer t =
  match t.recover_timer with
  | Some h ->
    Engine.cancel t.engine h;
    t.recover_timer <- None
  | None -> ()

(* Fetch the latest certified checkpoint from every peer, re-asking on a
   request-timeout cadence until a transfer installs (peers serving
   nothing, e.g. no stable checkpoint yet, stay silent). *)
let start_recovery t cp =
  Checkpoint.begin_recovery cp ~now:(Engine.now t.engine);
  let fetch () = broadcast t ~to_:t.peer_ids (t.kit.fetch_state (Checkpoint.low cp)) in
  let rec arm () =
    cancel_recover_timer t;
    t.recover_timer <-
      Some
        (Engine.schedule t.engine ~delay:t.recover_delay (fun () ->
             t.recover_timer <- None;
             if t.online && Checkpoint.recovering cp then begin
               fetch ();
               arm ()
             end))
  in
  fetch ();
  arm ()

(* Transfer by certificate whenever the group provably moved past us. *)
let maybe_catchup t cp =
  if Checkpoint.needs_catchup cp && not (Checkpoint.recovering cp) then start_recovery t cp

let serve t cp ~src ~have ~view ~suffix =
  match Checkpoint.serve cp ~view ~have ~suffix with
  | Some chunks -> List.iter (fun c -> send t ~dst:src (t.kit.state_chunk c)) chunks
  | None -> ()

(* Feed one transfer chunk. A completed transfer is reported to the
   checker and installed iff it verifies and lies past [last_exec];
   otherwise the replica stays recovering and the retry timer re-fetches. *)
let receive_chunk t ~src ~last_exec chunk ~install =
  match t.cp with
  | None -> ()
  | Some cp -> (
    match Checkpoint.feed cp ~src ~now:(Engine.now t.engine) chunk with
    | None -> ()
    | Some c ->
      let cert = c.Checkpoint.c_cert in
      if t.chk >= 0 then
        Check.transfer_applied ~session:t.chk ~replica:t.id ~seq:cert.Checkpoint.cp_seq
          ~claimed:cert.Checkpoint.cp_digest ~actual:c.Checkpoint.c_actual ~faulty:(faulty t);
      if (c.Checkpoint.c_valid || !Checkpoint.test_unverified_transfer)
         && cert.Checkpoint.cp_seq > last_exec
      then install c)

let install t (c : Checkpoint.completion) =
  match t.cp with
  | None -> invalid_arg "Replica.install: checkpointing is off"
  | Some cp ->
    cancel_recover_timer t;
    t.view <- max t.view c.Checkpoint.c_view;
    t.voted <- max t.voted t.view;
    App.set_state t.app c.Checkpoint.c_state;
    rid_reset t;
    List.iter (fun (client, rid, result) -> record t ~client ~rid result) c.Checkpoint.c_rids;
    Checkpoint.install cp c;
    let last =
      List.fold_left
        (fun _ (seq, requests) ->
          List.iter (fun req -> ignore (apply t req)) requests;
          seq)
        c.Checkpoint.c_cert.Checkpoint.cp_seq c.Checkpoint.c_suffix
    in
    t.stats.Stats.state_transfers <- t.stats.Stats.state_transfers + 1;
    t.stats.Stats.transfer_bytes <- t.stats.Stats.transfer_bytes + c.Checkpoint.c_bytes;
    t.stats.Stats.transfer_cycles <- t.stats.Stats.transfer_cycles + c.Checkpoint.c_elapsed;
    last

(* --- the agreement log --- *)

let log ~fresh ~agreed ~batch ~executed ~executing ~order ~voters ~serves ~installed =
  {
    ring = Slot_ring.create ~capacity:(2 * log_retention) ~fresh;
    ordered = Digest_map.create ~capacity:64 ();
    last_exec = 0;
    next_seq = 1;
    agreed;
    batch;
    executed;
    executing;
    order;
    voters;
    serves;
    installed;
  }

(* Record [requests] as ordered at [seq], so that a retransmission is not
   ordered twice in this view. *)
let mark_ordered log ~seq requests =
  List.iter
    (fun (req : Types.request) -> Digest_map.set log.ordered (Types.request_digest req) seq)
    requests

(* Claim the next sequence number for [requests]. *)
let assign log requests =
  let seq = log.next_seq in
  log.next_seq <- seq + 1;
  mark_ordered log ~seq requests;
  seq

(* Without a batcher a request is ordered as a batch of one, unless it
   already holds a place in this view. *)
let order_one log (request : Types.request) digest =
  if not (Digest_map.mem log.ordered digest) then log.order [ request ]

(* A request the primary admitted: a retransmission of a request that is
   already buffered here or ordered-but-unexecuted must not enter a
   second batch; pending membership covers exactly that interval. *)
let propose t log (request : Types.request) ~was_pending digest =
  match t.batcher with
  | Some b -> if not (was_pending || Digest_map.mem log.ordered digest) then Batcher.add b request
  | None -> order_one log request digest

(* A client request: a cached reply if it already executed, else it
   turns pending and the primary proposes it while a backup forwards it
   to the primary and watches it. *)
let on_request t log (request : Types.request) =
  if executed t request then reply_cached t request
  else begin
    let digest = Types.request_digest request in
    let was_pending = admit t request digest in
    if is_primary t then propose t log request ~was_pending digest
    else begin
      send t ~dst:(primary t t.view) (t.kit.request request);
      watch t digest
    end
  end

(* Forget the log and resume after [last_exec]. *)
let restart log ~last_exec =
  Slot_ring.reset log.ring;
  Digest_map.reset log.ordered;
  log.last_exec <- last_exec;
  log.next_seq <- last_exec + 1

(* The pipeline gate: at most [pipeline_depth] instances in flight above
   the execution frontier, and the next one (frontier + in-flight + 1)
   never past the high watermark. Sealed batches go to the log's [order]. *)
let attach_batcher t log (cfg : Types.batching option) ~in_flight =
  match cfg with
  | Some b when Batcher.active b ->
    let ready () =
      let k = in_flight () in
      k < b.Types.pipeline_depth && below_high t (log.last_exec + k + 1)
    in
    t.batcher <-
      Some (Batcher.create ~engine:t.engine ~cfg:b ~seal:log.order ~ready ~occupancy:in_flight)
  | Some _ | None -> ()

(* Log upkeep after executing [seq]: the fixed retention window without
   checkpoints, else the boundary vote to the log's voters plus our own.
   Returns the previous low watermark when that vote completed a
   certificate, else -1. *)
let after_exec t log ~seq =
  match t.cp with
  | None ->
    Slot_ring.release log.ring (seq - log_retention);
    Slot_ring.prune_outside log.ring ~low:(seq - log_retention) ~high:(seq + prune_margin);
    -1
  | Some cp -> (
    match
      Checkpoint.note_exec cp ~seq ~state:(App.state t.app) ~rid_last:t.rid_last
        ~rid_result:t.rid_result
    with
    | Some d ->
      broadcast t ~to_:(log.voters ()) (t.kit.checkpoint_vote seq d);
      Checkpoint.note_vote cp ~seq ~digest:d ~voter:t.id
    | None -> -1)

(* Execute agreed entries in sequence order. The reply cache provides
   exactly-once semantics per client. With checkpointing on, execution
   additionally (a) refuses to pass the high watermark, (b) snapshots
   and votes at checkpoint boundaries, and (c) defers log truncation to
   stable-checkpoint advances. *)
let rec try_execute t log =
  let seq = log.last_exec + 1 in
  if below_high t seq then begin
    let slot = Slot_ring.slot log.ring seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry log.ring slot in
      if log.agreed e && not (log.executed e) then begin
        check_window t ~seq;
        log.last_exec <- seq;
        log.executing ~seq e;
        List.iter (execute t) (log.batch e);
        kick t;
        on_cp_advance t log (after_exec t log ~seq);
        try_execute t log
      end
    end
  end

(* A checkpoint certificate moved the low watermark up from [prev] (or
   [prev < 0]: no advance): truncate the covered log prefix, sweep
   corrupt-seq outliers out of the overflow array, and resume: the high
   watermark moved, so parked batches may seal and a parked execution
   may run. *)
and on_cp_advance t log prev =
  match t.cp with
  | Some cp when prev >= 0 ->
    truncate log.ring cp ~from:(prev + 1) ~upto:(Checkpoint.low cp);
    t.stats.Stats.checkpoints <- t.stats.Stats.checkpoints + 1;
    kick t;
    try_execute t log
  | Some _ | None -> ()

let on_checkpoint_vote t log ~src ~seq ~digest =
  match t.cp with
  | Some cp when log.serves () ->
    on_cp_advance t log (Checkpoint.note_vote cp ~seq ~digest ~voter:src);
    maybe_catchup t cp
  | Some _ | None -> ()

(* An executed instance's payload for state transfer; [] stops the suffix. *)
let executed_batch log e = if log.executed e then log.batch e else []

(* The executed log suffix strictly above [from], ascending and gapless;
   stops at the first slot that is missing or unexecuted, so the receiver
   lands slightly behind and catches up normally. *)
let log_suffix log ~from =
  let acc = ref [] in
  let seq = ref (from + 1) in
  let continue = ref true in
  while !continue && !seq <= log.last_exec do
    let slot = Slot_ring.slot log.ring !seq in
    if slot >= 0 then begin
      match executed_batch log (Slot_ring.entry log.ring slot) with
      | [] -> continue := false
      | requests ->
        acc := (!seq, requests) :: !acc;
        incr seq
    end
    else continue := false
  done;
  List.rev !acc

let on_fetch_state t log ~src ~have =
  match t.cp with
  | Some cp when log.serves () ->
    serve t cp ~src ~have ~view:t.view ~suffix:(log_suffix log ~from:(Checkpoint.low cp))
  | Some _ | None -> ()

(* Install a completed, verified transfer: state and log suffix replayed,
   the log truncated below the new frontier, then execution rejoins at
   the tip. *)
let install_transfer t log (c : Checkpoint.completion) =
  match t.cp with
  | None -> ()
  | Some cp ->
    let prev_low = Checkpoint.low cp in
    let last = install t c in
    truncate log.ring cp ~from:(prev_low + 1) ~upto:last;
    log.last_exec <- last;
    log.next_seq <- max log.next_seq (last + 1);
    log.installed ();
    try_execute t log

let on_state_chunk t log ~src chunk =
  receive_chunk t ~src ~last_exec:log.last_exec chunk ~install:(install_transfer t log)

(* --- new views, churn and group assembly --- *)

let adopt t ~view ~state ~rid_table ~seq =
  t.view <- view;
  t.voted <- max t.voted view;
  (match t.batcher with Some b -> Batcher.clear b | None -> ());
  App.set_state t.app state;
  import_rid_table t rid_table;
  cancel_timers t;
  (match t.cp with
  | Some cp ->
    cancel_recover_timer t;
    Checkpoint.rebase cp ~seq
  | None -> ());
  List.iter (fun (req : Types.request) -> watch t (Types.request_digest req)) (pending_sorted t)

let set_offline t =
  t.online <- false;
  (match t.batcher with Some b -> Batcher.clear b | None -> ());
  cancel_timers t;
  cancel_recover_timer t

(* Back from rejuvenation. With checkpoints the replica was wiped: it
   restarts from nothing and rejoins by fetching the latest certified
   checkpoint plus log suffix from its peers, so state is earned, not
   received for free. Without them (the legacy model) it copies state,
   reply cache and view from the online peer with the most progress (the
   first on ties) and forgets its pending requests. *)
let set_online t =
  if not t.online then begin
    t.online <- true;
    let h = hooks t in
    match t.cp with
    | Some cp ->
      t.view <- 0;
      t.voted <- 0;
      h.wipe ();
      App.set_state t.app 0L;
      rid_reset t;
      Digest_map.reset t.pending;
      Checkpoint.reset cp;
      start_recovery t cp
    | None -> (
      let progress p = (hooks p).progress () in
      let better best p =
        match best with
        | _ when p.id = t.id || not p.online -> best
        | Some b when progress b >= progress p -> best
        | Some _ | None -> Some p
      in
      match Array.fold_left better None t.group with
      | Some p ->
        App.set_state t.app (App.state p.app);
        copy_rids t ~from:p;
        Digest_map.reset t.pending;
        t.view <- p.view;
        t.voted <- max t.voted p.view;
        h.adopt_peer ~progress:((hooks p).progress ())
      | None -> ())
  end

let start engine fabric kit (spec : spec) ?behaviors ~hooks make =
  Quorum.check_n spec.n (spec.label ^ ".start");
  let chk = if !Check.enabled then Check.new_session ~protocol:spec.protocol else -1 in
  let behaviors =
    match behaviors with
    | Some b ->
      if Array.length b <> spec.n then
        invalid_arg (spec.label ^ ".start: behaviors must cover every replica");
      b
    | None -> Array.make spec.n Behavior.honest
  in
  if fabric.Transport.n_endpoints < spec.n + spec.n_clients then
    invalid_arg (spec.label ^ ".start: fabric too small");
  let stats = Stats.create () in
  let cores = ref [] in
  let replicas =
    Array.init spec.n (fun id ->
        (* The hooks close over the protocol replica that [make] builds
           around this core, so the core holds them lazily. *)
        let rec r =
          lazy
            (let core =
               create engine fabric kit spec ~id ~behavior:behaviors.(id) ~stats ~chk
                 ~hooks:(lazy (hooks (Lazy.force r)))
             in
             cores := core :: !cores;
             make core)
        in
        Lazy.force r)
  in
  let group = Array.of_list (List.rev !cores) in
  Array.iter (fun c -> c.group <- group) group;
  (replicas, stats)

let clients engine fabric kit (spec : spec) ~stats =
  Array.init spec.n_clients (fun i ->
      Client.create engine fabric ~id:(spec.n + i) ~n_replicas:spec.n ~quorum:spec.client_quorum
        ~retry_timeout:spec.request_timeout ~stats ~to_msg:kit.request ~of_msg:kit.reply_of ())

let submit label clients ~client ~payload =
  if client < 0 || client >= Array.length clients then invalid_arg (label ^ ".submit: unknown client");
  Client.submit clients.(client) ~payload
