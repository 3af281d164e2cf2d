module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Keychain = Resoc_crypto.Keychain
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register
module Trinc = Resoc_hybrid.Trinc
module Monotonic = Resoc_hybrid.Usig.Monotonic
module Check = Resoc_check.Check

type msg =
  | Request of Types.request
  | Prepare_b of { view : int; requests : Types.request list; cert : Trinc.attestation }
  | Commit_b of {
      view : int;
      requests : Types.request list;
      primary_cert : Trinc.attestation;
      cert : Trinc.attestation;
    }
  | Update of { view : int; upto : int64; state : int64; rid_table : (int * (int * int64)) list }
  | Activate of { new_view : int }
  | New_view of { view : int; base : int64; state : int64; rid_table : (int * (int * int64)) list }
  | Reply of Types.reply
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  vc_timeout : int;
  update_period : int;
  trinc_protection : Register.protection;
  keychain_master : int64;
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
    update_period = 2_000;
    trinc_protection = Register.Secded;
    keychain_master = 0x17E4C0L;
    checkpoint = None;
    multicast = false;
    batching = None;
  }

let n_replicas config = (2 * config.f) + 1
let n_active_initial config = config.f + 1

(* Pooled in the slot ring, reset in place per counter; commit votes are
   a quorum bitset. *)
type entry = {
  mutable batch : Types.request list;  (* the counter's payload *)
  mutable commit_votes : Quorum.t;
  mutable executed : bool;
}

let fresh_entry _ = { batch = []; commit_votes = Quorum.empty; executed = false }

type replica = {
  core : msg Replica.t;
  f : int;
  config : config;
  trinc : Trinc.t;
  keychain : Keychain.t;
  mutable is_active : bool;
  mutable last_exec_counter : int64;
  log : entry Slot_ring.t;
  ordered : int Digest_map.t;
  mono : Monotonic.checker;
  baseline_pending : bool array;  (* per-signer counter resync after transition *)
  initial_active_others : int array;  (* ids 0..f minus self *)
  initial_passive : int array;  (* ids f+1..n-1 *)
  mutable gap_drops : int;
  mutable last_shipped : int64;
  repeat_counts : (int * int, int) Hashtbl.t;  (* (client, rid) -> cached-reply resends *)
}

type t = {
  engine : Engine.t;
  config : config;
  replicas : replica array;
  clients : msg Client.t array;
  shared_stats : Stats.t;
  keychain : Keychain.t;
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

let empty_ids : int array = [||]

(* The first view change is the transition to all-active: every view
   above 0 runs with all 2f+1 replicas. *)
let transitioned r = r.core.view > 0

(* The replicas that participate in agreement right now: the initial f+1
   active ones, or everyone after a transition. Activeness is tracked per
   replica, so views during/after the transition stay consistent. *)
let active_others r = if transitioned r then r.core.peer_ids else r.initial_active_others

let passive_ids (r : replica) = if transitioned r then empty_ids else r.initial_passive

(* Fault-free quorum: every active replica (f+1 of f+1). After a
   transition: f+1 of 2f+1. Either way the count is f+1. *)
let commit_quorum (r : replica) = r.f + 1

(* One agreed counter carries a batch (a single request is a batch of
   one); the attestation binds its batch digest. *)
let entry_digest (e : entry) = Types.batch_digest e.batch

let rec try_execute r =
  let next = Int64.add r.last_exec_counter 1L in
  let next_i = Int64.to_int next in
  let slot = Slot_ring.slot r.log next_i in
  if Replica.below_high r.core next_i && slot >= 0 then begin
    let e = Slot_ring.entry r.log slot in
    if (not e.executed) && Quorum.reached e.commit_votes ~threshold:(commit_quorum r) then begin
      e.executed <- true;
      r.last_exec_counter <- next;
      Replica.check_window r.core ~seq:next_i;
      if r.core.chk >= 0 then begin
        Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.core.view ~seq:next_i
          ~digest:(entry_digest e)
          ~signers:(Quorum.count e.commit_votes)
          ~quorum:(commit_quorum r)
          ~faulty:(Replica.faulty r.core);
        Replica.check_batch r.core ~view:r.core.view ~seq:next_i e.batch
      end;
      List.iter (Replica.execute r.core) e.batch;
      Replica.kick r.core;
      on_cp_advance r (Replica.after_exec r.core r.log ~seq:next_i ~voters:(active_others r));
      try_execute r
    end
  end

(* A new stable checkpoint: truncate the log below the low watermark (the
   certificate now proves everything up to it) and retry execution in case
   the high watermark was the only obstacle. *)
and on_cp_advance r prev =
  if prev >= 0 then begin
    Replica.stabilized r.core r.log ~prev;
    try_execute r
  end

let executed_batch (e : entry) = if e.executed then e.batch else []

(* Only actives hold stable certificates; a rejoiner asks everyone (it
   does not know who is active) and passives have nothing to serve. *)
let on_fetch_state r ~src ~have =
  match r.core.cp with
  | Some cp when r.is_active ->
    Replica.serve r.core cp ~src ~have ~view:r.core.view
      ~suffix:
        (Replica.log_suffix r.log ~from:(Checkpoint.low cp)
           ~upto:(Int64.to_int r.last_exec_counter) ~batch:executed_batch)
  | Some _ | None -> ()

let on_checkpoint_vote r ~src ~seq ~digest =
  match r.core.cp with
  | Some cp when r.is_active ->
    on_cp_advance r (Checkpoint.note_vote cp ~seq ~digest ~voter:src);
    Replica.maybe_catchup r.core cp
  | Some _ | None -> ()

(* Install a completed, verified transfer and rejoin in the role the
   serving view implies: after a transition everyone is active, before it
   the initial split stands. The TrInc counter is trusted hardware and
   survived the wipe, so peers re-baseline this signer instead of seeing
   a replay. *)
let install_transfer (r : replica) (c : Checkpoint.completion) =
  if c.Checkpoint.c_view > 0 then r.is_active <- true;
  r.last_exec_counter <- Int64.of_int (Replica.install ~log:r.log r.core c);
  r.last_shipped <- r.last_exec_counter;
  Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
  try_execute r

let attestation_digest digest = Hash.combine (Hash.of_string "cheap-stmt") digest

(* TrInc attestation with counter = exactly previous+1 plays the role of a
   USIG UI; [Trinc.attest] enforces non-decrease in the hybrid, and
   verifiers check the +1 step, which rules out both reuse and gaps. *)
let make_cert r digest =
  let next = Int64.add (fst (Resoc_hw.Register.read (Trinc.counter_register r.trinc))) 1L in
  Trinc.attest r.trinc ~new_counter:next ~digest:(attestation_digest digest)

let verify_cert (r : replica) ~digest (a : Trinc.attestation) =
  Trinc.verify ~key:(Keychain.component r.keychain a.Trinc.signer) a
  && Hash.equal a.Trinc.digest (attestation_digest digest)
  && Int64.equal a.Trinc.current (Int64.add a.Trinc.previous 1L)

let continuity_ok r ~signer ~counter =
  if r.baseline_pending.(signer) then begin
    (* First attestation since the transition: adopt it as the baseline. *)
    r.baseline_pending.(signer) <- false;
    Monotonic.force r.mono ~signer ~counter;
    true
  end
  else
    match Monotonic.check r.mono ~signer ~counter with
    | Monotonic.Accept -> true
    | Monotonic.Replay -> false
    | Monotonic.Gap _ ->
      r.gap_drops <- r.gap_drops + 1;
      false

let note_entry r ~counter ~requests ~voter =
  let entry, fresh = Slot_ring.bind r.log (Int64.to_int counter) in
  if fresh then begin
    entry.batch <- requests;
    entry.commit_votes <- Quorum.empty;
    entry.executed <- false
  end;
  entry.commit_votes <- Quorum.add entry.commit_votes voter;
  entry

let send_own_commit r ~view ~requests ~(primary_cert : Trinc.attestation) =
  let digest = Types.batch_digest requests in
  match make_cert r digest with
  | Error _ -> ()
  | Ok cert ->
    ignore (note_entry r ~counter:primary_cert.Trinc.current ~requests ~voter:r.core.id);
    Replica.broadcast r.core ~to_:(active_others r) (Commit_b { view; requests; primary_cert; cert });
    try_execute r

(* One TrInc attestation covers the whole list (the counter advances once
   per batch), one Prepare_b flight per active peer. Callers never hand
   over an already-ordered request (the [on_request] dedup guard, or
   [order_one]'s). *)
let order_batch r (requests : Types.request list) =
  if requests <> [] then
    match make_cert r (Types.batch_digest requests) with
    | Error _ -> ()
    | Ok cert ->
      List.iter
        (fun (req : Types.request) -> Digest_map.set r.ordered (Types.request_digest req) 0)
        requests;
      ignore (note_entry r ~counter:cert.Trinc.current ~requests ~voter:r.core.id);
      Replica.broadcast r.core ~to_:(active_others r)
        (Prepare_b { view = r.core.view; requests; cert });
      try_execute r

(* Without a batcher a request is ordered as a batch of one, unless it is
   already attested in this view. *)
let order_one r (request : Types.request) digest =
  if not (Digest_map.mem r.ordered digest) then order_batch r [ request ]

(* Actives ship attested state to the passive set periodically; one sender
   (the primary) suffices in the fault-free case. *)
let ship_updates r =
  if Replica.is_primary r.core && (not (transitioned r))
     && Int64.compare r.last_exec_counter r.last_shipped > 0
  then begin
    r.last_shipped <- r.last_exec_counter;
    let rid_table = Replica.rid_table r.core in
    let state = App.state r.core.app in
    let passive = passive_ids r in
    for i = 0 to Array.length passive - 1 do
      Replica.send r.core ~dst:passive.(i)
        (Update { view = r.core.view; upto = r.last_exec_counter; state; rid_table })
    done
  end

(* Forget the log and expect any counter from every signer next. *)
let restart_log r ~last_exec =
  Slot_ring.reset r.log;
  Digest_map.reset r.ordered;
  r.last_exec_counter <- last_exec;
  Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true

let adopt_new_view r ~view ~base ~state ~rid_table =
  r.is_active <- true;
  restart_log r ~last_exec:base;
  Replica.adopt r.core ~view ~state ~rid_table ~seq:(Int64.to_int base)

let become_primary r ~view =
  let rid_table = Replica.rid_table r.core in
  let state = App.state r.core.app in
  let base = fst (Resoc_hw.Register.read (Trinc.counter_register r.trinc)) in
  adopt_new_view r ~view ~base ~state ~rid_table;
  Replica.broadcast r.core ~to_:r.core.peer_ids (New_view { view; base; state; rid_table });
  List.iter
    (fun (req : Types.request) -> order_one r req (Types.request_digest req))
    (Replica.pending_sorted r.core)

(* A client re-asking for an already-executed request means it could not
   assemble an f+1 reply quorum — with only f+1 executing replicas, that is
   evidence one of them is lying (CheapBFT's PANIC case). *)
let note_repeat r ~client ~rid =
  let key = (client, rid) in
  let n = 1 + (match Hashtbl.find_opt r.repeat_counts key with Some n -> n | None -> 0) in
  Hashtbl.replace r.repeat_counts key n;
  if n >= 3 && not (transitioned r) then Replica.vote r.core ~view:(r.core.view + 1)

let on_request r (request : Types.request) =
  if Replica.executed r.core request then begin
    note_repeat r ~client:request.Types.client ~rid:request.Types.rid;
    Replica.reply_cached r.core request
  end
  else begin
    let digest = Types.request_digest request in
    let was_pending = Replica.admit r.core request digest in
    (* Every replica — the primary included — watches the request: in the
       all-active configuration a single silent active denies the quorum,
       and someone must call for the transition. *)
    Replica.watch r.core digest;
    if Replica.is_primary r.core && r.is_active then (
      match r.core.batcher with
      | Some b ->
        (* Retransmissions of a request already buffered (still pending)
           or already ordered must not enter a second batch. *)
        if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
      | None -> order_one r request digest)
    else Replica.send r.core ~dst:(Replica.primary r.core r.core.view) (Request request)
  end

let on_prepare r ~src ~view ~requests ~(cert : Trinc.attestation) =
  if view = r.core.view && r.is_active && src = Replica.primary r.core view
     && cert.Trinc.signer = src && requests <> []
  then begin
    let digest = Types.batch_digest requests in
    if verify_cert r ~digest cert && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      List.iter
        (fun (req : Types.request) -> Hashtbl.replace r.core.pending (Types.request_digest req) req)
        requests;
      ignore (note_entry r ~counter:cert.Trinc.current ~requests ~voter:src);
      send_own_commit r ~view ~requests ~primary_cert:cert
    end
    else
      List.iter
        (fun (req : Types.request) ->
          let d = Types.request_digest req in
          if Hashtbl.mem r.core.pending d then Replica.watch r.core d)
        requests
  end

let on_commit r ~src ~view ~requests ~(primary_cert : Trinc.attestation)
    ~(cert : Trinc.attestation) =
  if view = r.core.view && r.is_active && cert.Trinc.signer = src
     && primary_cert.Trinc.signer = Replica.primary r.core view
     && requests <> []
  then begin
    let digest = Types.batch_digest requests in
    if verify_cert r ~digest primary_cert && verify_cert r ~digest cert
       && continuity_ok r ~signer:src ~counter:cert.Trinc.current
    then begin
      ignore
        (note_entry r ~counter:primary_cert.Trinc.current ~requests
           ~voter:primary_cert.Trinc.signer);
      ignore (note_entry r ~counter:primary_cert.Trinc.current ~requests ~voter:src);
      try_execute r
    end
  end

let on_update r ~view ~upto ~state ~rid_table =
  if (not r.is_active) && view >= r.core.view && Int64.compare upto r.last_exec_counter > 0
  then begin
    r.last_exec_counter <- upto;
    App.set_state r.core.app state;
    Replica.import_rid_table r.core rid_table;
    (* Requests the actives already served are no longer pending here. *)
    let stale =
      Hashtbl.fold
        (fun digest req acc -> if Replica.executed r.core req then digest :: acc else acc)
        r.core.pending []
    in
    List.iter
      (fun digest ->
        Hashtbl.remove r.core.pending digest;
        Replica.cancel_timer r.core digest)
      stale
  end

let handle (r : replica) ~src msg =
  if Replica.live r.core then
    match msg with
    | Request request -> on_request r request
    | Prepare_b { view; requests; cert } -> on_prepare r ~src ~view ~requests ~cert
    | Commit_b { view; requests; primary_cert; cert } ->
      on_commit r ~src ~view ~requests ~primary_cert ~cert
    | Update { view; upto; state; rid_table } -> on_update r ~view ~upto ~state ~rid_table
    | Activate { new_view } -> Replica.on_vote r.core ~src ~view:new_view ~value:0
    | New_view { view; base; state; rid_table } ->
      if Replica.accepts_new_view r.core ~src ~view then
        adopt_new_view r ~view ~base ~state ~rid_table
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
    | Fetch_state { have } -> on_fetch_state r ~src ~have
    | State_chunk chunk ->
      Replica.on_state_chunk r.core ~src ~last_exec:(Int64.to_int r.last_exec_counter) chunk
        ~install:(install_transfer r)

let spec (config : config) =
  {
    Replica.label = "Cheapbft";
    protocol = "cheapbft";
    n = n_replicas config;
    n_clients = config.n_clients;
    client_quorum = config.f + 1;
    request_timeout = config.request_timeout;
    watch_delay = config.vc_timeout;
    checkpoint = config.checkpoint;
    cp_quorum = config.f + 1;
    multicast = config.multicast;
    spans = false;
    count_views = false;
  }

let make_replica (config : config) keychain (core : msg Replica.t) =
  let id = core.Replica.id and n = core.Replica.n and f = config.f in
  {
    core;
    f;
    config;
    trinc =
      Trinc.create ~id ~key:(Keychain.component keychain id) ~protection:config.trinc_protection;
    keychain;
    is_active = id <= f;
    last_exec_counter = 0L;
    log = Replica.create_log fresh_entry;
    ordered = Digest_map.create ~capacity:64 ();
    mono = Monotonic.create ();
    baseline_pending = Array.make n false;
    initial_active_others =
      (let act = List.filter (fun i -> i <> id) (List.init (f + 1) Fun.id) in
       Array.of_list act);
    initial_passive = Array.init (n - f - 1) (fun i -> f + 1 + i);
    gap_drops = 0;
    last_shipped = 0L;
    repeat_counts = Hashtbl.create 8;
  }

(* Any replica that sees a request starve votes to transition/rotate:
   repeated timeouts propose ever-higher views until a live primary is
   reached. *)
let hooks r =
  {
    Replica.vote = (fun new_view -> Activate { new_view });
    take_over = (fun ~view ~max_exec:_ -> become_primary r ~view);
    progress = (fun () -> r.last_exec_counter);
    wipe =
      (fun () ->
        (* The TrInc counter is hardware and survives the wipe. *)
        r.is_active <- r.core.id <= r.f;
        r.last_shipped <- 0L;
        Hashtbl.reset r.repeat_counts;
        restart_log r ~last_exec:0L);
    adopt_peer =
      (fun ~progress ->
        r.is_active <- transitioned r || r.core.id <= r.f;
        restart_log r ~last_exec:progress);
  }

let start engine fabric config ?behaviors () =
  let keychain = Keychain.create ~master:config.keychain_master ~n:(n_replicas config) in
  let spec = spec config in
  let replicas, stats =
    Replica.start engine fabric kit spec ?behaviors ~hooks (make_replica config keychain)
  in
  Array.iter
    (fun r ->
      (* The TrInc counter is the sequence number here: in-flight
         instances = attested counter minus the execution frontier. *)
      Replica.attach_batcher r.core config.batching ~seal:(order_batch r)
        ~in_flight:(fun () ->
          Int64.to_int (fst (Register.read (Trinc.counter_register r.trinc)))
          - Int64.to_int r.last_exec_counter)
        ~frontier:(fun () -> Int64.to_int r.last_exec_counter);
      fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg);
      Engine.every engine ~period:config.update_period (fun () -> ship_updates r))
    replicas;
  let clients = Replica.clients engine fabric kit spec ~stats in
  { engine; config; replicas; clients; shared_stats = stats; keychain }

let submit t ~client ~payload = Replica.submit "Cheapbft" t.clients ~client ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).core.view
let replica_state t ~replica = App.state t.replicas.(replica).core.app
let active t ~replica = t.replicas.(replica).is_active
let transitioned t = Array.exists transitioned t.replicas
let trinc t ~replica = t.replicas.(replica).trinc

let replica_online t ~replica = t.replicas.(replica).core.online

let set_offline t ~replica = Replica.set_offline t.replicas.(replica).core

let set_online t ~replica = Replica.set_online t.replicas.(replica).core
