module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Keychain = Resoc_crypto.Keychain
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register
module Trinc = Resoc_hybrid.Trinc

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

(* TrInc as the trusted counter: an attestation with counter = exactly
   previous+1 plays the role of a USIG UI. [Trinc.attest] enforces
   non-decrease in the hybrid and verifiers check the +1 step, which
   rules out both reuse and gaps. *)
module Trinc_hybrid = struct
  type t = Trinc.t
  type cert = Trinc.attestation

  let module_name = "Cheapbft"
  let protocol_name = "cheapbft"
  let make ~id ~key ~protection = Trinc.create ~id ~key ~protection
  let statement_tag = Hash.of_string "cheap-stmt"
  let statement digest = Hash.combine statement_tag digest
  let current_counter t = fst (Register.read (Trinc.counter_register t))

  let create_cert t digest =
    Trinc.attest t ~new_counter:(Int64.add (current_counter t) 1L) ~digest:(statement digest)

  let verify_cert ~key ~digest (a : cert) =
    Trinc.verify ~key a
    && Hash.equal a.Trinc.digest (statement digest)
    && Int64.equal a.Trinc.current (Int64.add a.Trinc.previous 1L)

  let cert_signer (a : cert) = a.Trinc.signer
  let cert_counter (a : cert) = a.Trinc.current
end

module A = Hybrid_bft.Agreement (Trinc_hybrid)

type replica = {
  a : msg A.t;
  f : int;
  initial_active_others : int array;  (* ids 0..f minus self *)
  initial_passive : int array;  (* ids f+1..n-1 *)
  mutable last_shipped : int;
  repeat_counts : (int * int, int) Hashtbl.t;  (* (client, rid) -> cached-reply resends *)
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

(* The first view change is the transition to all-active: every view
   above 0 runs with all 2f+1 replicas. *)
let transitioned r = r.a.core.view > 0

(* Whether this replica takes part in agreement: the initial f+1, or
   everyone after the transition. Only actives hold stable certificates. *)
let is_active r = transitioned r || r.a.core.id <= r.f

(* The replicas that participate in agreement right now: the initial f+1
   active ones, or everyone after a transition. *)
let active_others r = if transitioned r then r.a.core.peer_ids else r.initial_active_others

(* One TrInc attestation covers the whole list (the counter advances once
   per batch), one Prepare_b flight per active peer. Callers never hand
   over an already-ordered request (the dedup guards of [Replica.propose]
   and [Replica.order_one]). *)
let order_batch r (requests : Types.request list) =
  let a = r.a in
  if requests <> [] then
    match Trinc_hybrid.create_cert a.hybrid (Types.batch_digest requests) with
    | Error _ -> ()
    | Ok cert ->
      Replica.mark_ordered a.log ~seq:0 requests;
      A.note_entry a ~counter:cert.Trinc.current ~requests ~voter:a.core.id;
      Replica.broadcast a.core ~to_:(active_others r)
        (Prepare_b { view = a.core.view; requests; cert });
      Replica.try_execute a.core a.log

(* Actives ship attested state to the passive set periodically; one sender
   (the primary) suffices in the fault-free case. *)
let ship_updates r =
  let a = r.a in
  if Replica.is_primary a.core && (not (transitioned r))
     && a.log.last_exec > r.last_shipped
  then begin
    r.last_shipped <- a.log.last_exec;
    let rid_table = Replica.rid_table a.core in
    let state = App.state a.core.app in
    let passive = r.initial_passive in
    for i = 0 to Array.length passive - 1 do
      Replica.send a.core ~dst:passive.(i)
        (Update { view = a.core.view; upto = Int64.of_int a.log.last_exec; state; rid_table })
    done
  end

let become_primary r ~view =
  A.announce_view r.a ~view;
  List.iter
    (fun (req : Types.request) -> Replica.order_one r.a.log req (Types.request_digest req))
    (Replica.pending_sorted r.a.core)

(* A client re-asking for an already-executed request means it could not
   assemble an f+1 reply quorum — with only f+1 executing replicas, that is
   evidence one of them is lying (CheapBFT's PANIC case). *)
let note_repeat r ~client ~rid =
  let key = (client, rid) in
  let n = 1 + (match Hashtbl.find_opt r.repeat_counts key with Some n -> n | None -> 0) in
  Hashtbl.replace r.repeat_counts key n;
  if n >= 3 && not (transitioned r) then Replica.vote r.a.core ~view:(r.a.core.view + 1)

let on_request r (request : Types.request) =
  let core = r.a.core in
  if Replica.executed core request then begin
    note_repeat r ~client:request.Types.client ~rid:request.Types.rid;
    Replica.reply_cached core request
  end
  else begin
    let digest = Types.request_digest request in
    let was_pending = Replica.admit core request digest in
    (* Every replica — the primary included — watches the request: in the
       all-active configuration a single silent active denies the quorum,
       and someone must call for the transition. *)
    Replica.watch core digest;
    if Replica.is_primary core && is_active r then
      Replica.propose core r.a.log request ~was_pending digest
    else Replica.send core ~dst:(Replica.primary core core.view) (Request request)
  end

let on_update r ~view ~upto ~state ~rid_table =
  let core = r.a.core and log = r.a.log in
  if (not (is_active r)) && view >= core.view && Int64.to_int upto > log.last_exec then begin
    log.last_exec <- Int64.to_int upto;
    App.set_state core.app state;
    Replica.import_rid_table core rid_table;
    (* Requests the actives already served are no longer pending here. *)
    let stale =
      Hashtbl.fold
        (fun digest req acc -> if Replica.executed core req then digest :: acc else acc)
        core.pending []
    in
    List.iter
      (fun digest ->
        Hashtbl.remove core.pending digest;
        Replica.cancel_timer core digest)
      stale
  end

let handle (r : replica) ~src msg =
  let a = r.a in
  if Replica.live a.core then
    match msg with
    | Request request -> on_request r request
    | Prepare_b { view; requests; cert } -> A.on_prepare a ~src ~view ~requests ~cert
    | Commit_b { view; requests; primary_cert; cert } ->
      A.on_commit a ~src ~view ~requests ~primary_cert ~cert
    | Update { view; upto; state; rid_table } -> on_update r ~view ~upto ~state ~rid_table
    | Activate { new_view } -> Replica.on_vote a.core ~src ~view:new_view ~value:0
    | New_view { view; base; state; rid_table } ->
      if Replica.accepts_new_view a.core ~src ~view then
        A.adopt_new_view a ~view ~base ~state ~rid_table
    | Reply _ -> ()
    | Checkpoint_vote { seq; digest } -> Replica.on_checkpoint_vote a.core a.log ~src ~seq ~digest
    | Fetch_state { have } -> Replica.on_fetch_state a.core a.log ~src ~have
    | State_chunk chunk -> Replica.on_state_chunk a.core a.log ~src chunk

let spec (config : config) =
  {
    Replica.label = Trinc_hybrid.module_name;
    protocol = Trinc_hybrid.protocol_name;
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

(* Commits and checkpoint votes go to the active replicas, and only
   actives take part in agreement, count checkpoint votes and serve
   transfers; a rejoiner asks everyone (it does not know who is active)
   and passives stay silent. The commit quorum is every active replica
   (f+1 of f+1) before the transition and f+1 of 2f+1 after it: f+1
   either way. *)
let make_replica (config : config) keychain (core : msg Replica.t) =
  let id = core.Replica.id and n = core.Replica.n and f = config.f in
  let rec r =
    lazy
      {
        a =
          A.create core ~keychain ~protection:config.trinc_protection ~quorum:(f + 1)
            ~commit:(fun ~view ~requests ~primary_cert ~cert ->
              Commit_b { view; requests; primary_cert; cert })
            ~new_view:(fun ~view ~base ~state ~rid_table -> New_view { view; base; state; rid_table })
            ~order:(fun requests -> order_batch (Lazy.force r) requests)
            ~voters:(fun () -> active_others (Lazy.force r))
            ~serves:(fun () -> is_active (Lazy.force r))
            ~installed:(fun () ->
              let r = Lazy.force r in
              r.last_shipped <- r.a.log.last_exec);
        f;
        initial_active_others = Array.of_list (List.filter (( <> ) id) (List.init (f + 1) Fun.id));
        initial_passive = Array.init (n - f - 1) (fun i -> f + 1 + i);
        last_shipped = 0;
        repeat_counts = Hashtbl.create 8;
      }
  in
  Lazy.force r

(* Any replica that sees a request starve votes to transition/rotate:
   repeated timeouts propose ever-higher views until a live primary is
   reached. The TrInc counter is hardware and survives a wipe. *)
let hooks r =
  A.hooks r.a
    ~vote:(fun new_view -> Activate { new_view })
    ~take_over:(become_primary r)
    ~wipe:(fun () ->
      r.last_shipped <- 0;
      Hashtbl.reset r.repeat_counts)

let start engine fabric config ?behaviors () =
  let keychain = Keychain.create ~master:config.keychain_master ~n:(n_replicas config) in
  let spec = spec config in
  let replicas, stats =
    Replica.start engine fabric kit spec ?behaviors ~hooks (make_replica config keychain)
  in
  Array.iter
    (fun r ->
      A.attach_batcher r.a config.batching;
      fabric.Transport.set_handler r.a.core.id (fun ~src msg -> handle r ~src msg);
      Engine.every engine ~period:config.update_period (fun () -> ship_updates r))
    replicas;
  let clients = Replica.clients engine fabric kit spec ~stats in
  { replicas; clients; shared_stats = stats }

let submit t ~client ~payload = Replica.submit Trinc_hybrid.module_name t.clients ~client ~payload

let stats t = t.shared_stats

let view t ~replica = t.replicas.(replica).a.core.view
let replica_state t ~replica = App.state t.replicas.(replica).a.core.app
let active t ~replica = is_active t.replicas.(replica)
let transitioned t = Array.exists transitioned t.replicas
let trinc t ~replica = t.replicas.(replica).a.hybrid

let set_offline t ~replica = Replica.set_offline t.replicas.(replica).a.core

let set_online t ~replica = Replica.set_online t.replicas.(replica).a.core
