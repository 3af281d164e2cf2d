module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Pre_prepare_b of { view : int; seq : int; digest : Hash.t; requests : Types.request list }
      (* The one ordering message: an instance covers a request list
         (digest = Types.batch_digest), an unbatched request being a
         batch of one. One NoC flight per destination carries every
         payload. *)
  | Prepare of { view : int; seq : int; digest : Hash.t }
  | Commit of { view : int; seq : int; digest : Hash.t }
  | Reply of Types.reply
  | View_change of { new_view : int; last_exec : int }
  | New_view of { view : int; start_seq : int; state : int64; rid_table : (int * (int * int64)) list }
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  vc_timeout : int;
  checkpoint : Checkpoint.config option;
  multicast : bool;
  batching : Types.batching option;
}

let default_config =
  {
    f = 1;
    n_clients = 2;
    request_timeout = 4000;
    vc_timeout = 2500;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = (3 * config.f) + 1

(* Entries are pooled in the slot ring and reset in place when a new
   sequence number claims the slot — every field is mutable, so
   steady-state agreement allocates nothing per slot. *)
type entry = {
  mutable e_view : int;
  mutable digest : Hash.t;
  mutable batch : Types.request list;  (* the instance's payload; [] until the pre-prepare *)
  mutable prepares : Quorum.t;
  mutable commits : Quorum.t;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
}

let fresh_entry _ =
  {
    e_view = -1;
    digest = Hash.zero;
    batch = [];
    prepares = Quorum.empty;
    commits = Quorum.empty;
    sent_commit = false;
    committed = false;
    executed = false;
  }

(* Stale-view marker returned by [entry_for]; never stored in a ring. *)
let null_entry = fresh_entry 0

type replica = {
  core : msg Replica.t;
  f : int;
  config : config;
  mutable view : int;
  mutable next_seq : int;  (* next sequence number to assign (when primary) *)
  mutable last_exec : int;
  log : entry Slot_ring.t;  (* seq -> entry (current view only) *)
  ordered : int Digest_map.t;  (* digest -> seq, current view *)
  vc_rounds : Quorum.Rounds.t;  (* view -> voter -> last_exec *)
  mutable vc_voted : int;  (* highest view we voted for *)
}

type t = {
  engine : Engine.t;
  fabric : msg Transport.fabric;
  config : config;
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
}

let primary_of ~view ~n = view mod n

let is_primary (r : replica) = primary_of ~view:r.view ~n:r.core.n = r.core.id

let kit =
  {
    Replica.request = (fun request -> Request request);
    reply = (fun reply -> Reply reply);
    reply_of = (function Reply reply -> Some reply | _ -> None);
    checkpoint_vote = (fun seq digest -> Checkpoint_vote { seq; digest });
    fetch_state = (fun have -> Fetch_state { have });
    state_chunk = (fun chunk -> State_chunk chunk);
  }

(* The entry tracking [seq], creating it (reset in place) on first
   touch. Returns [null_entry] when the slot holds a stale-view entry;
   the message is ignored. *)
let entry_for r ~view ~seq ~digest =
  let e, fresh = Slot_ring.bind r.log seq in
  if fresh then begin
    e.e_view <- view;
    e.digest <- digest;
    e.batch <- [];
    e.prepares <- Quorum.empty;
    e.commits <- Quorum.empty;
    e.sent_commit <- false;
    e.committed <- false;
    e.executed <- false;
    if !Obs.trace_on then
      Ring.async_begin r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_counter_span ~replica:r.core.id ~counter:seq)
        ~arg:0;
    e
  end
  else if e.e_view = view then e
  else null_entry  (* stale view entry at this slot; ignore the message *)

(* An entry carries its payload once the pre-prepare arrived; until then
   Prepare/Commit quorums may gather but nothing can commit or execute. *)
let entry_filled (e : entry) = e.batch != []

(* An executed instance's payload for state transfer; [] stops the suffix. *)
let executed_batch (e : entry) = if e.executed then e.batch else []

(* Execute committed entries in sequence order. The reply cache provides
   exactly-once semantics per client. With checkpointing on, execution
   additionally (a) refuses to pass the high watermark, (b) snapshots
   and votes at checkpoint boundaries, and (c) defers log truncation to
   stable-checkpoint advances. *)
let rec try_execute r =
  let seq = r.last_exec + 1 in
  if Replica.below_high r.core seq then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if e.committed && (not e.executed) && entry_filled e then begin
        Replica.check_window r.core ~seq;
        e.executed <- true;
        r.last_exec <- r.last_exec + 1;
        if !Obs.trace_on then
          Ring.async_end r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_counter_span ~replica:r.core.id ~counter:r.last_exec)
            ~arg:0;
        List.iter (Replica.execute r.core) e.batch;
        Replica.kick r.core;
        on_cp_advance r (Replica.after_exec r.core r.log ~seq:r.last_exec ~voters:r.core.peer_ids);
        try_execute r
      end
    end
  end

(* A checkpoint certificate moved the low watermark up from [prev] (or
   [prev < 0]: no advance): truncate, and resume execution in case it
   was parked at the old high watermark. *)
and on_cp_advance r prev =
  if prev >= 0 then begin
    Replica.stabilized r.core r.log ~prev;
    (* The high watermark moved: parked batches may seal now. *)
    Replica.kick r.core;
    try_execute r
  end

(* --- certified state transfer --- *)

let on_fetch_state r ~src ~have =
  match r.core.cp with
  | None -> ()
  | Some cp ->
    Replica.serve r.core cp ~src ~have ~view:r.view
      ~suffix:(Replica.log_suffix r.log ~from:(Checkpoint.low cp) ~upto:r.last_exec ~batch:executed_batch)

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.core.cp with
  | None -> ()
  | Some cp ->
    on_cp_advance r (Checkpoint.note_vote cp ~seq ~digest ~voter:src);
    Replica.maybe_catchup r.core cp

(* Install a completed, verified transfer and rejoin execution at the tip. *)
let install_transfer r (c : Checkpoint.completion) =
  r.view <- max r.view c.Checkpoint.c_view;
  r.vc_voted <- max r.vc_voted r.view;
  r.last_exec <- Replica.install ~log:r.log r.core c;
  r.next_seq <- max r.next_seq (r.last_exec + 1);
  try_execute r

let try_commit r ~seq (e : entry) =
  if (not e.committed)
     && Quorum.reached e.commits ~threshold:((2 * r.f) + 1)
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
     && entry_filled e
  then begin
    e.committed <- true;
    if r.core.chk >= 0 then begin
      Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.view ~seq ~digest:e.digest
        ~signers:(Quorum.count e.commits)
        ~quorum:((2 * r.f) + 1)
        ~faulty:(Replica.faulty r.core);
      Replica.check_batch r.core ~view:r.view ~seq e.batch
    end;
    try_execute r
  end

let send_commit_if_prepared r ~seq (e : entry) =
  if (not e.sent_commit) && entry_filled e
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
  then begin
    e.sent_commit <- true;
    e.commits <- Quorum.add e.commits r.core.id;
    Replica.broadcast r.core ~to_:r.core.peer_ids (Commit { view = r.view; seq; digest = e.digest });
    try_commit r ~seq e
  end

(* --- view changes --- *)

(* A request timer fired on a pending request: escalate past views whose
   primary never answered. *)
let on_expire r () =
  if r.core.online then begin
    let new_view = max r.view r.vc_voted + 1 in
    r.vc_voted <- new_view;
    Replica.broadcast r.core ~to_:r.core.all_ids (View_change { new_view; last_exec = r.last_exec })
  end

(* One sequence number covers the whole batch, agreed under its batch
   digest, shipped as one (multicast-able) flight per destination. Callers
   dedup against [r.ordered] first (on the way into the batcher, or in
   [order_one]), so the list is ordered verbatim — which is what lets the
   [Batcher.test_duplicate_first] mutant actually reach agreement. *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then begin
    let digest = Types.batch_digest requests in
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    List.iter
      (fun (req : Types.request) -> Digest_map.set r.ordered (Types.request_digest req) seq)
      requests;
    if !Obs.trace_on then
      Ring.instant r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_event ~replica:r.core.id ~code:Obs.code_pre_prepare)
        ~arg:seq;
    let equivocating = Replica.equivocating r.core in
    let e = entry_for r ~view:r.view ~seq ~digest in
    if e != null_entry then begin
      e.batch <- requests;
      e.prepares <- Quorum.add e.prepares r.core.id
    end;
    let backups = r.core.peer_ids in
    if equivocating then begin
      (* An equivocating primary tells half the backups a different
         story. The truthful half is too small to form a 2f+1 quorum, so
         the slot stalls until a view change evicts the primary. *)
      let lies = r.f + 1 in
      for i = 0 to Array.length backups - 1 do
        let digest' = if i < lies then Hash.combine digest (Hash.of_string "lie") else digest in
        Replica.send r.core ~dst:backups.(i)
          (Pre_prepare_b { view = r.view; seq; digest = digest'; requests })
      done
    end
    else Replica.broadcast r.core ~to_:backups (Pre_prepare_b { view = r.view; seq; digest; requests })
  end

(* Without a batcher a request is ordered as a batch of one, unless it
   already holds a sequence number in this view. *)
let order_one r (request : Types.request) digest =
  if not (Digest_map.mem r.ordered digest) then order_batch r [ request ]

(* The new view is a fresh proof baseline: state and reply cache come
   from its primary, pending requests restart their patience, and the
   watermarks rebase onto the adopted last_exec. *)
let adopt_new_view r ~view ~start_seq ~state ~rid_table =
  r.view <- view;
  r.vc_voted <- max r.vc_voted view;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  r.last_exec <- start_seq - 1;
  r.next_seq <- start_seq;
  Replica.adopt r.core ~state ~rid_table ~seq:(start_seq - 1)

let become_primary r ~view ~start_seq =
  let rid_table = Replica.rid_table r.core in
  let state = App.state r.core.app in
  adopt_new_view r ~view ~start_seq ~state ~rid_table;
  Replica.broadcast r.core ~to_:r.core.peer_ids (New_view { view; start_seq; state; rid_table });
  (* Re-propose everything still pending, deterministically ordered. *)
  List.iter
    (fun (req : Types.request) -> order_one r req (Types.request_digest req))
    (Replica.pending_sorted r.core)

let on_view_change r ~src ~new_view ~last_exec =
  if new_view > r.view then begin
    let voters =
      Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:last_exec
    in
    (* Join the view change once f+1 replicas are committed to it: at least
       one of them is honest, so the timeout was genuine. *)
    if voters >= r.f + 1 && r.vc_voted < new_view then begin
      r.vc_voted <- new_view;
      Replica.broadcast r.core ~to_:r.core.all_ids (View_change { new_view; last_exec = r.last_exec })
    end;
    if voters >= (2 * r.f) + 1 && primary_of ~view:new_view ~n:r.core.n = r.core.id then begin
      let max_exec = Quorum.Rounds.max_value r.vc_rounds ~view:new_view ~default:r.last_exec in
      Replica.view_changed r.core ~view:new_view;
      become_primary r ~view:new_view ~start_seq:(max_exec + 1)
    end
  end

(* --- message handling --- *)

let on_request r (request : Types.request) =
  if Replica.executed r.core request then
    (* Already executed: re-send the cached reply. *)
    Replica.reply_cached r.core request
  else begin
    let digest = Types.request_digest request in
    let was_pending = Replica.admit r.core request digest in
    if is_primary r then (
      match r.core.batcher with
      | Some b ->
        (* A retransmission of a request that is already buffered here or
           ordered-but-unexecuted must not enter a second batch; pending
           membership covers exactly that interval. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_one r request digest)
    else begin
      (* Forward to the primary and watch it. *)
      Replica.send r.core ~dst:(primary_of ~view:r.view ~n:r.core.n) (Request request);
      Replica.watch r.core digest
    end
  end

let on_pre_prepare r ~src ~view ~seq ~digest ~requests =
  if view = r.view && src = primary_of ~view ~n:r.core.n && (not (is_primary r)) && requests <> []
  then begin
    if Hash.equal digest (Types.batch_digest requests) then begin
      List.iter
        (fun (req : Types.request) -> Hashtbl.replace r.core.pending (Types.request_digest req) req)
        requests;
      let e = entry_for r ~view ~seq ~digest in
      if e != null_entry && Hash.equal e.digest digest then begin
        e.batch <- requests;
        e.prepares <- Quorum.add e.prepares src;
        if not (Quorum.mem e.prepares r.core.id) then begin
          e.prepares <- Quorum.add e.prepares r.core.id;
          Replica.broadcast r.core ~to_:r.core.peer_ids (Prepare { view; seq; digest })
        end;
        send_commit_if_prepared r ~seq e
      end
    end
    else
      (* Batch digest mismatch: equivocating or corrupt primary. Watch
         every carried request; the timers push a view change. *)
      List.iter
        (fun (req : Types.request) ->
          Hashtbl.replace r.core.pending (Types.request_digest req) req;
          Replica.watch r.core (Types.request_digest req))
        requests
  end

let on_prepare r ~src ~view ~seq ~digest =
  if view = r.view then begin
    let e = entry_for r ~view ~seq ~digest in
    if e != null_entry && Hash.equal e.digest digest then begin
      e.prepares <- Quorum.add e.prepares src;
      send_commit_if_prepared r ~seq e
    end
  end

let on_commit r ~src ~view ~seq ~digest =
  if view = r.view then begin
    let e = entry_for r ~view ~seq ~digest in
    if e != null_entry && Hash.equal e.digest digest then begin
      e.commits <- Quorum.add e.commits src;
      try_commit r ~seq e
    end
  end

let on_new_view r ~src ~view ~start_seq ~state ~rid_table =
  if view > r.view && src = primary_of ~view ~n:r.core.n then
    adopt_new_view r ~view ~start_seq ~state ~rid_table

let handle (r : replica) ~src msg =
  if Replica.live r.core then
    match msg with
    | Request request -> on_request r request
    | Pre_prepare_b { view; seq; digest; requests } ->
      on_pre_prepare r ~src ~view ~seq ~digest ~requests
    | Prepare { view; seq; digest } -> on_prepare r ~src ~view ~seq ~digest
    | Commit { view; seq; digest } -> on_commit r ~src ~view ~seq ~digest
    | View_change { new_view; last_exec } -> on_view_change r ~src ~new_view ~last_exec
    | New_view { view; start_seq; state; rid_table } ->
      on_new_view r ~src ~view ~start_seq ~state ~rid_table
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk ->
      Replica.on_state_chunk r.core ~src ~last_exec:r.last_exec chunk
        ~install:(install_transfer r)
    | Reply _ -> ()

(* --- system assembly --- *)

let spec (config : config) =
  {
    Replica.label = "Pbft";
    protocol = "pbft";
    n = n_replicas config;
    n_clients = config.n_clients;
    client_quorum = config.f + 1;
    request_timeout = config.request_timeout;
    watch_delay = config.vc_timeout;
    checkpoint = config.checkpoint;
    cp_quorum = (2 * config.f) + 1;
    multicast = config.multicast;
    spans = true;
    count_views = true;
  }

let make_replica (config : config) (core : msg Replica.t) =
  let r =
    {
      core;
      f = config.f;
      config;
      view = 0;
      next_seq = 1;
      last_exec = 0;
      log = Replica.create_log fresh_entry;
      ordered = Digest_map.create ~capacity:64 ();
      vc_rounds = Quorum.Rounds.create ~n:core.Replica.n ();
      vc_voted = 0;
    }
  in
  core.Replica.on_expire <- on_expire r;
  r

let start engine fabric config ?behaviors () =
  Quorum.check_n (n_replicas config) "Pbft.start";
  let spec = spec config in
  let replicas, stats = Replica.start engine fabric kit spec ?behaviors (make_replica config) in
  Array.iter
    (fun r ->
      (* In-flight instances sit between the execution frontier and the
         next sequence number to assign. *)
      Replica.attach_batcher r.core config.batching ~seal:(order_batch r)
        ~in_flight:(fun () -> r.next_seq - r.last_exec - 1)
        ~frontier:(fun () -> r.last_exec);
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
    replicas;
  let clients = Replica.clients engine fabric kit spec ~stats in
  { engine; fabric; config; replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Replica.submit "Pbft" t.clients ~client ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).view

let replica_state t ~replica = App.state t.replicas.(replica).core.app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

let replica_online t ~replica = t.replicas.(replica).core.online

let set_offline t ~replica = Replica.set_offline t.replicas.(replica).core

let set_online t ~replica =
  let r = t.replicas.(replica) in
  if not r.core.online then begin
    r.core.online <- true;
    match r.core.cp with
    | Some cp ->
      (* Rejuvenation wiped the replica: restart from nothing and rejoin
         by fetching the latest certified checkpoint plus log suffix
         from the peers — state is earned, not received for free. *)
      r.view <- 0;
      r.vc_voted <- 0;
      r.last_exec <- 0;
      r.next_seq <- 1;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Replica.rejoin_wiped r.core cp
    | None -> (
      (* Legacy model: free state copy from the most advanced online
         peer (the hand-waved post-reconfiguration fetch). *)
      match
        Replica.legacy_rejoin r.core t.replicas ~core:(fun p -> p.core) ~progress:(fun p -> p.last_exec)
      with
      | Some peer ->
        r.view <- peer.view;
        r.vc_voted <- max r.vc_voted peer.view;
        r.last_exec <- peer.last_exec;
        r.next_seq <- peer.last_exec + 1;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered
      | None -> ())
  end
