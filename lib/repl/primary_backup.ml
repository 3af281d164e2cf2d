module Engine = Resoc_des.Engine
module Behavior = Resoc_fault.Behavior
module Hash = Resoc_crypto.Hash
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Update_b of { epoch : int; seq : int; state : int64; replies : (int * int * int64) list }
  | Heartbeat of { epoch : int }
  | Promote of { epoch : int }
  | Reply of Types.reply
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  n_backups : int;
  n_clients : int;
  request_timeout : int;
  heartbeat_period : int;
  detection_timeout : int;
  checkpoint : Checkpoint.config option;
  multicast : bool;
  batching : Types.batching option;
}

let default_config =
  {
    n_backups = 1;
    n_clients = 2;
    request_timeout = 4000;
    heartbeat_period = 500;
    detection_timeout = 1500;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = config.n_backups + 1

type replica = {
  core : msg Replica.t;  (* no pending requests or request timers here *)
  config : config;
  mutable seq : int;  (* primary: updates shipped; backup: updates applied *)
  mutable last_heartbeat : int;
  buffered : unit Digest_map.t;  (* digests of the requests parked in the batcher *)
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

(* Both ends of an update derive the same digest from its payload: every
   (client, rid, result) reply folded over the post-batch state, so the
   checker can compare primary and backup commits at one (epoch, seq)
   slot. *)
let update_tag = Hash.of_string "pb-update-b"

let update_digest ~state ~(replies : (int * int * int64) list) =
  List.fold_left
    (fun acc (client, rid, result) ->
      Hash.combine_int (Hash.combine acc result) ((client * 1_000_003) + rid))
    (Hash.combine update_tag state)
    replies

(* Primary-side checkpointing: at every boundary the primary digests its
   state, announces the vote (so backups track stability and detect
   falling behind), and — the quorum being 1 in the crash-pair model —
   immediately stabilises its own certificate. *)
let note_boundary r =
  match r.core.cp with
  | None -> ()
  | Some cp -> (
    Replica.check_window r.core ~seq:r.seq;
    match
      Checkpoint.note_exec cp ~seq:r.seq ~state:(App.state r.core.app) ~rid_last:r.core.rid_last
        ~rid_result:r.core.rid_result
    with
    | None -> ()
    | Some d ->
      Replica.broadcast r.core ~to_:r.core.peer_ids (Checkpoint_vote { seq = r.seq; digest = d });
      if Checkpoint.note_vote cp ~seq:r.seq ~digest:d ~voter:r.core.id >= 0 then
        r.core.stats.Stats.checkpoints <- r.core.stats.Stats.checkpoints + 1)

(* The primary path (the [Batcher.seal] callback; without a batcher every
   request is a batch of one): execute the whole batch in arrival order,
   bump the sequence number ONCE, and ship one Update_b with the
   post-batch state plus one (client, rid, result) reply per request —
   the reply list is what lets backups rebuild the same reply cache the
   primary has. *)
let exec_batch r (requests : Types.request list) =
  List.iter
    (fun (req : Types.request) -> Digest_map.remove r.buffered (Types.request_digest req))
    requests;
  if requests <> [] && Replica.is_primary r.core then begin
    let replies =
      List.map
        (fun (req : Types.request) -> (req.Types.client, req.Types.rid, Replica.apply r.core req))
        requests
    in
    r.seq <- r.seq + 1;
    let state = App.state r.core.app in
    if r.core.chk >= 0 then begin
      Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.core.view ~seq:r.seq
        ~digest:(update_digest ~state ~replies)
        ~signers:(-1) ~quorum:1
        ~faulty:(Replica.faulty r.core);
      let len = List.length replies in
      List.iteri
        (fun pos (client, rid, _) ->
          Check.batch_commit ~session:r.core.chk ~replica:r.core.id ~view:r.core.view ~seq:r.seq
            ~pos ~len ~client ~rid
            ~faulty:(Replica.faulty r.core))
        replies
    end;
    Replica.broadcast r.core ~to_:r.core.peer_ids
      (Update_b { epoch = r.core.view; seq = r.seq; state; replies });
    note_boundary r;
    List.iter (fun (client, rid, result) -> Replica.reply r.core ~client ~rid result) replies
  end

let on_request r (request : Types.request) =
  if Replica.is_primary r.core then begin
    let client = request.Types.client and rid = request.Types.rid in
    if Replica.executed r.core request then
      Replica.reply r.core ~client ~rid r.core.rid_result.(client)
    else
      match r.core.batcher with
      | Some b ->
        (* Retransmissions of a request already parked in the batcher must
           not enter a second batch. *)
        let digest = Types.request_digest request in
        if not (Digest_map.mem r.buffered digest) then begin
          Digest_map.set r.buffered digest ();
          Batcher.add b request
        end
      | None -> exec_batch r [ request ]
  end

let on_update r ~epoch ~seq ~state ~(replies : (int * int * int64) list) =
  if epoch >= r.core.view && seq > r.seq then begin
    r.core.view <- max r.core.view epoch;
    r.seq <- seq;
    App.set_state r.core.app state;
    if r.core.chk >= 0 then begin
      Check.commit ~session:r.core.chk ~replica:r.core.id ~view:epoch ~seq
        ~digest:(update_digest ~state ~replies)
        ~signers:(-1) ~quorum:1
        ~faulty:(Replica.faulty r.core);
      let len = List.length replies in
      List.iteri
        (fun pos (client, rid, _) ->
          Check.batch_commit ~session:r.core.chk ~replica:r.core.id ~view:epoch ~seq ~pos ~len
            ~client ~rid
            ~faulty:(Replica.faulty r.core))
        replies
    end;
    List.iter
      (fun (client, rid, result) ->
        let c = Replica.rid_slot r.core client in
        (* Reply-cache hits sealed into a batch carry their old rid; never
           regress the cache below what this backup already recorded. *)
        if r.core.rid_last.(c) = min_int || rid > r.core.rid_last.(c) then
          Replica.record r.core ~client ~rid result)
      replies;
    (match r.core.cp with
    | None -> ()
    | Some cp ->
      (* Landing exactly on a boundary lets the backup match the
         primary's vote; a skipped boundary (gap in the update stream)
         instead trips the catch-up path when the vote arrives. *)
      ignore
        (Checkpoint.note_exec cp ~seq ~state ~rid_last:r.core.rid_last
           ~rid_result:r.core.rid_result))
  end

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.core.cp with
  | None -> ()
  | Some cp ->
    if Checkpoint.note_vote cp ~seq ~digest ~voter:src >= 0 then
      r.core.stats.Stats.checkpoints <- r.core.stats.Stats.checkpoints + 1;
    Replica.maybe_catchup r.core cp

let on_fetch_state r ~src ~have =
  match r.core.cp with
  | None -> ()
  | Some cp ->
    (* Self-stabilize at the execution tip before serving: Updates carry
       full state but no replayable log, so serving the last periodic
       boundary would restore a wiped primary behind the backups and make
       it re-issue sequence numbers they already executed. In the crash
       model this replica's own snapshot is as trustworthy as any
       certificate (the quorum is 1). The transfer then needs no log
       suffix: Meta + reply-cache chunks reconstruct the replica. *)
    if (not (Checkpoint.recovering cp)) && r.seq > Checkpoint.low cp then
      Checkpoint.force_stable cp ~seq:r.seq ~state:(App.state r.core.app)
        ~rid_last:r.core.rid_last ~rid_result:r.core.rid_result ~voter:r.core.id;
    Replica.serve r.core cp ~src ~have ~view:r.core.view ~suffix:[]

let install_transfer (r : replica) (c : Checkpoint.completion) =
  r.seq <- Replica.install r.core c;
  r.last_heartbeat <- Engine.now r.core.engine

let on_heartbeat r ~epoch =
  if epoch >= r.core.view then begin
    r.core.view <- max r.core.view epoch;
    r.last_heartbeat <- Engine.now r.core.engine
  end

let on_promote r ~epoch =
  if epoch > r.core.view then begin
    r.core.view <- epoch;
    r.last_heartbeat <- Engine.now r.core.engine;
    if Replica.is_primary r.core then Replica.view_changed r.core ~view:epoch
  end

let handle (r : replica) ~src msg =
  if Replica.live r.core then
    match msg with
    | Request request -> on_request r request
    | Update_b { epoch; seq; state; replies } -> on_update r ~epoch ~seq ~state ~replies
    | Heartbeat { epoch } -> on_heartbeat r ~epoch
    | Promote { epoch } -> on_promote r ~epoch
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk ->
      Replica.receive_chunk r.core ~src ~last_exec:r.seq chunk
        ~install:(install_transfer r)

(* Primary duty: periodic heartbeats. Backup duty: watch for silence; the
   next-in-line backup promotes itself when the detector fires. Ranks stagger
   the takeover so two backups don't promote simultaneously. *)
let start_timers (r : replica) =
  Engine.every r.core.engine ~period:r.config.heartbeat_period (fun () ->
      if Replica.live r.core then
        if Replica.is_primary r.core then
          Replica.broadcast r.core ~to_:r.core.peer_ids (Heartbeat { epoch = r.core.view })
        else begin
          let n = r.core.n in
          let silence = Engine.now r.core.engine - r.last_heartbeat in
          (* The smallest future epoch whose primary is this replica; the
             extra stagger lets closer-ranked backups claim first, so a dead
             next-in-line does not wedge the failover chain. *)
          let mine =
            let offset = ((r.core.id - (r.core.view + 1)) mod n + n) mod n in
            r.core.view + 1 + offset
          in
          let rank = mine - r.core.view - 1 in
          if silence > r.config.detection_timeout + (rank * r.config.heartbeat_period) then begin
            r.core.view <- mine;
            Replica.view_changed r.core ~view:mine;
            r.last_heartbeat <- Engine.now r.core.engine;
            Replica.broadcast r.core ~to_:r.core.peer_ids (Promote { epoch = mine })
          end
        end)

let spec (config : config) =
  {
    Replica.label = "Primary_backup";
    protocol = "primary_backup";
    n = n_replicas config;
    n_clients = config.n_clients;
    client_quorum = 1;
    request_timeout = config.request_timeout;
    watch_delay = 0;  (* no request timers: failover is heartbeat-driven *)
    checkpoint = config.checkpoint;
    cp_quorum = 1;
    multicast = config.multicast;
    spans = false;
    count_views = false;
  }

let make_replica config core =
  { core; config; seq = 0; last_heartbeat = 0; buffered = Digest_map.create () }

(* Failover is heartbeat-driven: no request timer runs and no vote is
   ever cast or tallied, so [vote] and [take_over] are never called. *)
let hooks r =
  {
    Replica.vote = (fun epoch -> Promote { epoch });
    take_over = (fun ~view:_ ~max_exec:_ -> ());
    progress = (fun () -> r.seq);
    wipe = (fun () -> r.seq <- 0);
    adopt_peer = (fun ~progress -> r.seq <- progress);
  }

(* The primary executes and replies the moment it seals, so there is no
   in-flight agreement to bound: the pipeline gate is trivially open and
   occupancy is always 0 — batching here only amortizes update traffic. *)
let attach_batcher engine (r : replica) =
  match r.config.batching with
  | Some b when Batcher.active b ->
    r.core.batcher <-
      Some
        (Batcher.create ~engine ~cfg:b
           ~seal:(fun reqs -> exec_batch r reqs)
           ~ready:(fun () -> true)
           ~occupancy:(fun () -> 0))
  | Some _ | None -> ()

let start engine fabric config ?behaviors () =
  let spec = spec config in
  let replicas, stats =
    Replica.start engine fabric kit spec ?behaviors ~hooks (make_replica config)
  in
  Array.iter
    (fun r ->
      attach_batcher engine r;
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg);
      start_timers r)
    replicas;
  let clients = Replica.clients engine fabric kit spec ~stats in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Replica.submit "Primary_backup" t.clients ~client ~payload

let stats t = t.shared_stats

let current_primary t =
  let best =
    Array.fold_left
      (fun acc r -> if r.core.view > acc.core.view then r else acc)
      t.replicas.(0) t.replicas
  in
  Replica.primary best.core best.core.view

let replica_state t ~replica = App.state t.replicas.(replica).core.app

let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

let set_offline t ~replica =
  let r = t.replicas.(replica) in
  Replica.set_offline r.core;
  Digest_map.reset r.buffered

let set_online t ~replica =
  let r = t.replicas.(replica) in
  (* The failure detector's patience restarts when the replica returns. *)
  if not r.core.online then r.last_heartbeat <- Engine.now r.core.engine;
  Replica.set_online r.core
