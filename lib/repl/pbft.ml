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
  log : entry Replica.log;
}

type t = {
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
}

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
  let e, fresh = Slot_ring.bind r.log.ring seq in
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

let try_commit r ~seq (e : entry) =
  if (not e.committed)
     && Quorum.reached e.commits ~threshold:((2 * r.f) + 1)
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
     && entry_filled e
  then begin
    e.committed <- true;
    if r.core.chk >= 0 then begin
      Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.core.view ~seq ~digest:e.digest
        ~signers:(Quorum.count e.commits)
        ~quorum:((2 * r.f) + 1)
        ~faulty:(Replica.faulty r.core);
      Replica.check_batch r.core ~view:r.core.view ~seq e.batch
    end;
    Replica.try_execute r.core r.log
  end

let send_commit_if_prepared r ~seq (e : entry) =
  if (not e.sent_commit) && entry_filled e
     && Quorum.reached e.prepares ~threshold:((2 * r.f) + 1)
  then begin
    e.sent_commit <- true;
    e.commits <- Quorum.add e.commits r.core.id;
    Replica.broadcast r.core ~to_:r.core.peer_ids
      (Commit { view = r.core.view; seq; digest = e.digest });
    try_commit r ~seq e
  end

(* --- view changes --- *)

(* What an equivocating primary mixes into the digest it tells half the
   backups. *)
let lie_tag = Hash.of_string "lie"

(* One sequence number covers the whole batch, agreed under its batch
   digest, shipped as one (multicast-able) flight per destination. Callers
   dedup against the log's [ordered] first ([Replica.propose] on the way
   into the batcher, or [Replica.order_one]), so the list is ordered
   verbatim — which is what lets the [Batcher.test_duplicate_first]
   mutant actually reach agreement. *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then begin
    let digest = Types.batch_digest requests in
    let seq = Replica.assign r.log requests in
    if !Obs.trace_on then
      Ring.instant r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
        ~id:(Obs.repl_event ~replica:r.core.id ~code:Obs.code_pre_prepare)
        ~arg:seq;
    let equivocating = Replica.equivocating r.core in
    let view = r.core.view in
    let e = entry_for r ~view ~seq ~digest in
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
        let digest' = if i < lies then Hash.combine digest lie_tag else digest in
        Replica.send r.core ~dst:backups.(i)
          (Pre_prepare_b { view; seq; digest = digest'; requests })
      done
    end
    else Replica.broadcast r.core ~to_:backups (Pre_prepare_b { view; seq; digest; requests })
  end

(* The new view is a fresh proof baseline: state and reply cache come
   from its primary, pending requests restart their patience, and the
   watermarks rebase onto the adopted last_exec. *)
let adopt_new_view r ~view ~start_seq ~state ~rid_table =
  Replica.restart r.log ~last_exec:(start_seq - 1);
  Replica.adopt r.core ~view ~state ~rid_table ~seq:(start_seq - 1)

let become_primary r ~view ~start_seq =
  let rid_table = Replica.rid_table r.core in
  let state = App.state r.core.app in
  adopt_new_view r ~view ~start_seq ~state ~rid_table;
  Replica.broadcast r.core ~to_:r.core.peer_ids (New_view { view; start_seq; state; rid_table });
  (* Re-propose everything still pending, deterministically ordered. *)
  List.iter
    (fun (req : Types.request) -> Replica.order_one r.log req (Types.request_digest req))
    (Replica.pending_sorted r.core)

(* --- message handling --- *)

let on_pre_prepare r ~src ~view ~seq ~digest ~requests =
  if view = r.core.view && src = Replica.primary r.core view && (not (Replica.is_primary r.core))
     && requests <> []
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
  if view = r.core.view then begin
    let e = entry_for r ~view ~seq ~digest in
    if e != null_entry && Hash.equal e.digest digest then begin
      e.prepares <- Quorum.add e.prepares src;
      send_commit_if_prepared r ~seq e
    end
  end

let on_commit r ~src ~view ~seq ~digest =
  if view = r.core.view then begin
    let e = entry_for r ~view ~seq ~digest in
    if e != null_entry && Hash.equal e.digest digest then begin
      e.commits <- Quorum.add e.commits src;
      try_commit r ~seq e
    end
  end

let handle (r : replica) ~src msg =
  if Replica.live r.core then
    match msg with
    | Request request -> Replica.on_request r.core r.log request
    | Pre_prepare_b { view; seq; digest; requests } ->
      on_pre_prepare r ~src ~view ~seq ~digest ~requests
    | Prepare { view; seq; digest } -> on_prepare r ~src ~view ~seq ~digest
    | Commit { view; seq; digest } -> on_commit r ~src ~view ~seq ~digest
    | View_change { new_view; last_exec } ->
      Replica.on_vote r.core ~src ~view:new_view ~value:last_exec
    | New_view { view; start_seq; state; rid_table } ->
      if Replica.accepts_new_view r.core ~src ~view then
        adopt_new_view r ~view ~start_seq ~state ~rid_table
    | Checkpoint_vote { seq; digest } -> Replica.on_checkpoint_vote r.core r.log ~src ~seq ~digest
    | Fetch_state { have } -> Replica.on_fetch_state r.core r.log ~src ~have
    | State_chunk chunk -> Replica.on_state_chunk r.core r.log ~src chunk
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

(* The log's accessors close over the replica they belong to. *)
let make_replica (config : config) (core : msg Replica.t) =
  let rec r =
    lazy
      {
        core;
        f = config.f;
        log =
          Replica.log ~fresh:fresh_entry
            ~agreed:(fun e -> e.committed && entry_filled e)
            ~batch:(fun e -> e.batch)
            ~executed:(fun e -> e.executed)
            ~executing:(fun ~seq e ->
              e.executed <- true;
              if !Obs.trace_on then
                Ring.async_end core.obs.Obs.ring ~time:(Engine.now core.engine) ~cat:Obs.Cat.repl
                  ~id:(Obs.repl_counter_span ~replica:core.id ~counter:seq)
                  ~arg:0)
            ~order:(fun requests -> order_batch (Lazy.force r) requests)
            ~voters:(fun () -> core.peer_ids)
            ~serves:(fun () -> true)
            ~installed:ignore;
      }
  in
  Lazy.force r

let hooks r =
  {
    Replica.vote = (fun new_view -> View_change { new_view; last_exec = r.log.last_exec });
    take_over = (fun ~view ~max_exec -> become_primary r ~view ~start_seq:(max_exec + 1));
    progress = (fun () -> r.log.last_exec);
    wipe = (fun () -> Replica.restart r.log ~last_exec:0);
    adopt_peer = (fun ~progress -> Replica.restart r.log ~last_exec:progress);
  }

let start engine fabric config ?behaviors () =
  let spec = spec config in
  let replicas, stats =
    Replica.start engine fabric kit spec ?behaviors ~hooks (make_replica config)
  in
  Array.iter
    (fun r ->
      (* In-flight instances sit between the execution frontier and the
         next sequence number to assign. *)
      Replica.attach_batcher r.core r.log config.batching
        ~in_flight:(fun () -> r.log.next_seq - r.log.last_exec - 1);
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
    replicas;
  let clients = Replica.clients engine fabric kit spec ~stats in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Replica.submit "Pbft" t.clients ~client ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).core.view

let replica_state t ~replica = App.state t.replicas.(replica).core.app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

let replica_online t ~replica = t.replicas.(replica).core.online

let set_offline t ~replica = Replica.set_offline t.replicas.(replica).core

let set_online t ~replica = Replica.set_online t.replicas.(replica).core
