module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Accept_b of { term : int; seq : int; requests : Types.request list }
  | Accepted of { term : int; seq : int }
  | Commit of { term : int; seq : int }
  | Reply of Types.reply
  | Term_change of { new_term : int; last_exec : int }
  | New_term of { term : int; start_seq : int; state : int64; rid_table : (int * (int * int64)) list }
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  election_timeout : int;
  checkpoint : Checkpoint.config option;
  multicast : bool;
  batching : Types.batching option;
}

let default_config =
  {
    f = 1;
    n_clients = 2;
    request_timeout = 4000;
    election_timeout = 2500;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = (2 * config.f) + 1

(* Pooled in the slot ring and reset in place per sequence number; the
   ack set is a quorum bitset, so an entry costs no allocation after the
   ring warms up. *)
type entry = {
  mutable batch : Types.request list;  (* the slot's payload; [] until the accept *)
  mutable acks : Quorum.t;
  mutable committed : bool;
  mutable executed : bool;
}

let fresh_entry _ = { batch = []; acks = Quorum.empty; committed = false; executed = false }

type replica = {
  core : msg Replica.t;
  f : int;
  config : config;
  mutable term : int;
  mutable next_seq : int;
  mutable last_exec : int;
  log : entry Slot_ring.t;
  ordered : int Digest_map.t;
  election_rounds : Quorum.Rounds.t;  (* term -> voter -> last_exec *)
  mutable voted : int;
}

type t = {
  engine : Engine.t;
  config : config;
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
}

let leader_of ~term ~n = term mod n

let is_leader (r : replica) = leader_of ~term:r.term ~n:r.core.n = r.core.id

let kit =
  {
    Replica.request = (fun request -> Request request);
    reply = (fun reply -> Reply reply);
    reply_of = (function Reply reply -> Some reply | _ -> None);
    checkpoint_vote = (fun seq digest -> Checkpoint_vote { seq; digest });
    fetch_state = (fun have -> Fetch_state { have });
    state_chunk = (fun chunk -> State_chunk chunk);
  }

(* A request timer fired on a pending request: escalate past terms whose
   leader never answered. *)
let on_expire r () =
  if r.core.online then begin
    let new_term = max r.term r.voted + 1 in
    r.voted <- new_term;
    Replica.broadcast r.core ~to_:r.core.all_ids (Term_change { new_term; last_exec = r.last_exec })
  end

(* One agreed slot carries a batch (a single request is a batch of one);
   agreement keys on its batch digest. *)
let entry_digest (e : entry) = Types.batch_digest e.batch

let rec try_execute r =
  let next = r.last_exec + 1 in
  let slot = Slot_ring.slot r.log next in
  if Replica.below_high r.core next && slot >= 0 then begin
    let e = Slot_ring.entry r.log slot in
    if e.committed && not e.executed then begin
      e.executed <- true;
      r.last_exec <- next;
      Replica.check_window r.core ~seq:next;
      if r.core.chk >= 0 then begin
        (* [-1] signers: followers apply leader decisions without a local
           certificate; the leader's quorum is checked in [on_accepted]. *)
        Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.term ~seq:r.last_exec
          ~digest:(entry_digest e) ~signers:(-1) ~quorum:(r.f + 1)
          ~faulty:(Replica.faulty r.core);
        Replica.check_batch r.core ~view:r.term ~seq:next e.batch
      end;
      List.iter (Replica.execute r.core) e.batch;
      Replica.kick r.core;
      on_cp_advance r (Replica.after_exec r.core r.log ~seq:next ~voters:r.core.peer_ids);
      try_execute r
    end
  end

(* A new stable checkpoint: truncate the log below the low watermark and
   retry execution in case the high watermark was the only obstacle. *)
and on_cp_advance r prev =
  if prev >= 0 then begin
    Replica.stabilized r.core r.log ~prev;
    try_execute r
  end

let executed_batch (e : entry) = if e.executed then e.batch else []

let on_fetch_state r ~src ~have =
  match r.core.cp with
  | None -> ()
  | Some cp ->
    Replica.serve r.core cp ~src ~have ~view:r.term
      ~suffix:(Replica.log_suffix r.log ~from:(Checkpoint.low cp) ~upto:r.last_exec ~batch:executed_batch)

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.core.cp with
  | None -> ()
  | Some cp ->
    on_cp_advance r (Checkpoint.note_vote cp ~seq ~digest ~voter:src);
    Replica.maybe_catchup r.core cp

(* Install a completed, verified transfer and rejoin execution at the tip. *)
let install_transfer (r : replica) (c : Checkpoint.completion) =
  r.term <- max r.term c.Checkpoint.c_view;
  r.voted <- max r.voted r.term;
  r.last_exec <- Replica.install ~log:r.log r.core c;
  r.next_seq <- max r.next_seq (r.last_exec + 1);
  try_execute r

(* The whole list shares one slot, one Accept_b flight per follower, one
   ack round. Callers never hand over an already-ordered request (the
   [on_request] dedup guard, or [order_one]'s). *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then begin
    let seq = r.next_seq in
    r.next_seq <- r.next_seq + 1;
    List.iter
      (fun (req : Types.request) -> Digest_map.set r.ordered (Types.request_digest req) seq)
      requests;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.batch <- requests;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end
    else e.batch <- requests;
    e.acks <- Quorum.add e.acks r.core.id;
    Replica.broadcast r.core ~to_:r.core.peer_ids (Accept_b { term = r.term; seq; requests })
  end

(* Without a batcher a request is ordered as a batch of one, unless it
   already holds a slot in this term. *)
let order_one r (request : Types.request) digest =
  if not (Digest_map.mem r.ordered digest) then order_batch r [ request ]

let adopt_new_term r ~term ~start_seq ~state ~rid_table =
  r.term <- term;
  r.voted <- max r.voted term;
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  r.last_exec <- start_seq - 1;
  r.next_seq <- start_seq;
  Replica.adopt r.core ~state ~rid_table ~seq:(start_seq - 1)

let become_leader r ~term ~start_seq =
  let rid_table = Replica.rid_table r.core in
  let state = App.state r.core.app in
  adopt_new_term r ~term ~start_seq ~state ~rid_table;
  Replica.broadcast r.core ~to_:r.core.peer_ids (New_term { term; start_seq; state; rid_table });
  List.iter
    (fun (req : Types.request) -> order_one r req (Types.request_digest req))
    (Replica.pending_sorted r.core)

let on_term_change r ~src ~new_term ~last_exec =
  if new_term > r.term then begin
    let voters =
      Quorum.Rounds.note r.election_rounds ~current:r.term ~view:new_term ~voter:src
        ~value:last_exec
    in
    if voters >= 1 && r.voted < new_term then begin
      (* Crash model: one timeout report is credible; join immediately. *)
      r.voted <- new_term;
      Replica.broadcast r.core ~to_:r.core.all_ids (Term_change { new_term; last_exec = r.last_exec })
    end;
    if voters >= r.f + 1 && leader_of ~term:new_term ~n:r.core.n = r.core.id then begin
      let max_exec = Quorum.Rounds.max_value r.election_rounds ~view:new_term ~default:r.last_exec in
      Replica.view_changed r.core ~view:new_term;
      become_leader r ~term:new_term ~start_seq:(max_exec + 1)
    end
  end

let on_request r (request : Types.request) =
  if Replica.executed r.core request then Replica.reply_cached r.core request
  else begin
    let digest = Types.request_digest request in
    let was_pending = Replica.admit r.core request digest in
    if is_leader r then (
      match r.core.batcher with
      | Some b ->
        (* Retransmissions of a request already buffered (still pending)
           or already ordered must not enter a second batch. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_one r request digest)
    else begin
      Replica.send r.core ~dst:(leader_of ~term:r.term ~n:r.core.n) (Request request);
      Replica.watch r.core digest
    end
  end

let on_accept r ~src ~term ~seq ~requests =
  if term = r.term && src = leader_of ~term ~n:r.core.n && (not (is_leader r)) && requests <> []
  then begin
    List.iter
      (fun (req : Types.request) -> Hashtbl.replace r.core.pending (Types.request_digest req) req)
      requests;
    let e, fresh = Slot_ring.bind r.log seq in
    if fresh then begin
      e.batch <- requests;
      e.acks <- Quorum.empty;
      e.committed <- false;
      e.executed <- false
    end;
    Replica.send r.core ~dst:src (Accepted { term; seq })
  end

let on_accepted r ~src ~term ~seq =
  if term = r.term && is_leader r then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      let e = Slot_ring.entry r.log slot in
      if not e.committed then begin
        e.acks <- Quorum.add e.acks src;
        if Quorum.reached e.acks ~threshold:(r.f + 1) then begin
          e.committed <- true;
          if r.core.chk >= 0 then
            Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.term ~seq
              ~digest:(entry_digest e) ~signers:(Quorum.count e.acks) ~quorum:(r.f + 1)
              ~faulty:(Replica.faulty r.core);
          Replica.broadcast r.core ~to_:r.core.peer_ids (Commit { term; seq });
          try_execute r
        end
      end
    end
  end

let on_commit r ~src ~term ~seq =
  if term = r.term && src = leader_of ~term ~n:r.core.n then begin
    let slot = Slot_ring.slot r.log seq in
    if slot >= 0 then begin
      (Slot_ring.entry r.log slot).committed <- true;
      try_execute r
    end
  end

let on_new_term r ~src ~term ~start_seq ~state ~rid_table =
  if term > r.term && src = leader_of ~term ~n:r.core.n then
    adopt_new_term r ~term ~start_seq ~state ~rid_table

(* Crash faults only: Byzantine strategies other than Silent and Delay
   (which the core's send gate applies) degrade to honest behaviour here,
   except Corrupt_execution which corrupts replies — unchecked by crash
   clients, the vulnerability E4 makes visible. *)
let handle (r : replica) ~src msg =
  if Replica.live r.core then
    match msg with
    | Request request -> on_request r request
    | Accept_b { term; seq; requests } -> on_accept r ~src ~term ~seq ~requests
    | Accepted { term; seq } -> on_accepted r ~src ~term ~seq
    | Commit { term; seq } -> on_commit r ~src ~term ~seq
    | Term_change { new_term; last_exec } -> on_term_change r ~src ~new_term ~last_exec
    | New_term { term; start_seq; state; rid_table } ->
      on_new_term r ~src ~term ~start_seq ~state ~rid_table
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk ->
      Replica.on_state_chunk r.core ~src ~last_exec:r.last_exec chunk
        ~install:(install_transfer r)

let spec (config : config) =
  {
    Replica.label = "Paxos";
    protocol = "paxos";
    n = n_replicas config;
    n_clients = config.n_clients;
    client_quorum = 1;
    request_timeout = config.request_timeout;
    watch_delay = config.election_timeout;
    checkpoint = config.checkpoint;
    cp_quorum = config.f + 1;
    multicast = config.multicast;
    spans = false;
    count_views = false;
  }

let make_replica (config : config) (core : msg Replica.t) =
  let r =
    {
      core;
      f = config.f;
      config;
      term = 0;
      next_seq = 1;
      last_exec = 0;
      log = Replica.create_log fresh_entry;
      ordered = Digest_map.create ~capacity:64 ();
      election_rounds = Quorum.Rounds.create ~n:core.Replica.n ();
      voted = 0;
    }
  in
  core.Replica.on_expire <- on_expire r;
  r

let start engine fabric config ?behaviors () =
  Quorum.check_n (n_replicas config) "Paxos.start";
  let spec = spec config in
  let replicas, stats = Replica.start engine fabric kit spec ?behaviors (make_replica config) in
  Array.iter
    (fun r ->
      (* In-flight instances sit between the execution frontier and the
         next proposal. *)
      Replica.attach_batcher r.core config.batching ~seal:(order_batch r)
        ~in_flight:(fun () -> r.next_seq - r.last_exec - 1)
        ~frontier:(fun () -> r.last_exec);
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
    replicas;
  let clients = Replica.clients engine fabric kit spec ~stats in
  { engine; config; replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Replica.submit "Paxos" t.clients ~client ~payload

let stats t = t.shared_stats

let term t ~replica = t.replicas.(replica).term

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
      (* Rejuvenation wiped the replica: rejoin by certified transfer
         instead of a free peer copy. *)
      r.term <- 0;
      r.voted <- 0;
      r.last_exec <- 0;
      r.next_seq <- 1;
      Slot_ring.reset r.log;
      Digest_map.reset r.ordered;
      Replica.rejoin_wiped r.core cp
    | None -> (
      (* Legacy model: free state copy from the most advanced online peer. *)
      match
        Replica.legacy_rejoin r.core t.replicas ~core:(fun p -> p.core) ~progress:(fun p -> p.last_exec)
      with
      | Some peer ->
        r.term <- peer.term;
        r.voted <- max r.voted peer.term;
        r.last_exec <- peer.last_exec;
        r.next_seq <- peer.last_exec + 1;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered
      | None -> ())
  end
