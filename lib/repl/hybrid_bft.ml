module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Mac = Resoc_crypto.Mac
module Keychain = Resoc_crypto.Keychain
module Behavior = Resoc_fault.Behavior
module Usig = Resoc_hybrid.Usig
module Register = Resoc_hw.Register
module Obs = Resoc_obs.Obs
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check

module type HYBRID = sig
  type t
  type cert

  val module_name : string
  val protocol_name : string
  val make : id:int -> key:Mac.key -> protection:Register.protection -> t
  val create_cert : t -> Hash.t -> (cert, string) result
  val verify_cert : key:Mac.key -> digest:Hash.t -> cert -> bool
  val cert_signer : cert -> int
  val cert_counter : cert -> int64
  val current_counter : t -> int64
end

module type S = sig
  type hybrid
  type cert

  type msg =
    | Request of Types.request
    | Prepare of { view : int; requests : Types.request list; cert : cert }
    | Commit of { view : int; requests : Types.request list; primary_cert : cert; cert : cert }
    | Reply of Types.reply
    | Req_view_change of { new_view : int }
    | New_view of { view : int; base : int64; state : int64; rid_table : (int * (int * int64)) list }
    | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
    | Fetch_state of { have : int }
    | State_chunk of Checkpoint.chunk

  type config = {
    f : int;
    n_clients : int;
    request_timeout : int;
    vc_timeout : int;
    usig_protection : Register.protection;
    keychain_master : int64;
    batch_window : int;
    max_batch : int;
    checkpoint : Checkpoint.config option;
    multicast : bool;
    batching : Types.batching option;
  }

  val default_config : config
  val n_replicas : config -> int

  type t

  val start :
    Engine.t -> msg Transport.fabric -> config -> ?behaviors:Behavior.t array -> unit -> t

  val submit : t -> client:int -> payload:int64 -> unit
  val stats : t -> Stats.t
  val replica_state : t -> replica:int -> int64
  val set_replica_state : t -> replica:int -> int64 -> unit
  val hybrid : t -> replica:int -> hybrid
  val cert_gap_drops : t -> int
  val set_offline : t -> replica:int -> unit
  val set_online : t -> replica:int -> unit
end

(* The trusted-counter agreement path of MinBFT, A2M-BFT and CheapBFT.
   Where they differ the difference is data: commit recipients are the
   log's [voters], the active-replica gate is the log's [serves], and
   the counter spans follow the core's [spans] flag. *)
module Agreement (H : HYBRID) = struct
  (* Pooled in the slot ring, reset in place when a counter claims the
     slot; commit votes are a quorum bitset. *)
  type entry = {
    mutable requests : Types.request list;  (* the batch bound to this counter *)
    mutable commit_votes : Quorum.t;  (* replicas vouching for this counter *)
    mutable executed : bool;
  }

  let fresh_entry _ = { requests = []; commit_votes = Quorum.empty; executed = false }

  type 'msg t = {
    core : 'msg Replica.t;
    hybrid : H.t;
    keychain : Keychain.t;
    log : entry Replica.log;  (* primary counter -> entry (current view) *)
    mono : Usig.Monotonic.checker;  (* per-sender counter continuity *)
    baseline_pending : bool array;  (* per-sender resync after a jump *)
    mutable gap_drops : int;
    commit : view:int -> requests:Types.request list -> primary_cert:H.cert -> cert:H.cert -> 'msg;
    new_view :
      view:int -> base:int64 -> state:int64 -> rid_table:(int * (int * int64)) list -> 'msg;
  }

  (* We missed every counter issued while the log jumped (a new view, a
     rejoin or a transfer): re-baseline every sender. *)
  let resync a = Array.fill a.baseline_pending 0 (Array.length a.baseline_pending) true

  (* Counter continuity: exact next counter per sender, with a one-shot
     baseline resync after the log jumped (we cannot tell which counters
     we missed, so the sender's next one becomes the baseline). *)
  let continuity_ok a ~signer ~counter =
    if a.baseline_pending.(signer) then begin
      a.baseline_pending.(signer) <- false;
      Usig.Monotonic.force a.mono ~signer ~counter;
      true
    end
    else
      match Usig.Monotonic.check a.mono ~signer ~counter with
      | Usig.Monotonic.Accept -> true
      | Usig.Monotonic.Replay -> false
      | Usig.Monotonic.Gap _ ->
        a.gap_drops <- a.gap_drops + 1;
        false

  let verify_cert a ~digest cert =
    H.verify_cert ~key:(Keychain.component a.keychain (H.cert_signer cert)) ~digest cert

  (* Record the authenticated (batch, counter) binding from the primary
     and add [voter]'s commit vote. *)
  let note_entry a ~counter ~requests ~voter =
    let entry, fresh = Slot_ring.bind a.log.ring (Int64.to_int counter) in
    if fresh then begin
      entry.requests <- requests;
      entry.commit_votes <- Quorum.empty;
      entry.executed <- false;
      if a.core.spans && !Obs.trace_on then
        Ring.async_begin a.core.obs.Obs.ring ~time:(Engine.now a.core.engine) ~cat:Obs.Cat.repl
          ~id:(Obs.repl_counter_span ~replica:a.core.id ~counter:(Int64.to_int counter))
          ~arg:(List.length requests)
    end;
    entry.commit_votes <- Quorum.add entry.commit_votes voter

  (* Vouch for the primary's binding under our own next counter. *)
  let send_own_commit a ~view ~requests ~primary_cert =
    match H.create_cert a.hybrid (Types.batch_digest requests) with
    | Error _ -> ()  (* our hybrid fail-stopped; we cannot vouch *)
    | Ok cert ->
      note_entry a ~counter:(H.cert_counter primary_cert) ~requests ~voter:a.core.id;
      Replica.broadcast a.core ~to_:(a.log.voters ()) (a.commit ~view ~requests ~primary_cert ~cert);
      Replica.try_execute a.core a.log

  let on_prepare a ~src ~view ~requests ~cert =
    if view = a.core.view && a.log.serves () && src = Replica.primary a.core view
       && H.cert_signer cert = src && requests <> []
    then begin
      if verify_cert a ~digest:(Types.batch_digest requests) cert
         && continuity_ok a ~signer:src ~counter:(H.cert_counter cert)
      then begin
        List.iter
          (fun (req : Types.request) ->
            Digest_map.set a.core.pending (Types.request_digest req) req)
          requests;
        note_entry a ~counter:(H.cert_counter cert) ~requests ~voter:src;
        send_own_commit a ~view ~requests ~primary_cert:cert
      end
      else
        (* Bad or gapped certificate from the primary: keep pressure on the
           timers of whichever requests we already know. *)
        List.iter
          (fun req ->
            let digest = Types.request_digest req in
            if Digest_map.mem a.core.pending digest then Replica.watch a.core digest)
          requests
    end

  let on_commit a ~src ~view ~requests ~primary_cert ~cert =
    if view = a.core.view && a.log.serves () && H.cert_signer cert = src
       && H.cert_signer primary_cert = Replica.primary a.core view
       && requests <> []
    then begin
      let digest = Types.batch_digest requests in
      if verify_cert a ~digest primary_cert && verify_cert a ~digest cert
         && continuity_ok a ~signer:src ~counter:(H.cert_counter cert)
      then begin
        (* The primary's certificate authenticates the (batch, counter)
           binding even if we never saw the prepare directly. *)
        let counter = H.cert_counter primary_cert in
        note_entry a ~counter ~requests ~voter:(H.cert_signer primary_cert);
        note_entry a ~counter ~requests ~voter:src;
        Replica.try_execute a.core a.log
      end
    end

  (* Forget the log and resume after [last_exec]; the counters jumped. *)
  let restart a ~last_exec =
    Replica.restart a.log ~last_exec;
    resync a

  let adopt_new_view a ~view ~base ~state ~rid_table =
    restart a ~last_exec:(Int64.to_int base);
    Replica.adopt a.core ~view ~state ~rid_table ~seq:(Int64.to_int base)

  (* The new primary's view starts at its own attested counter. *)
  let announce_view a ~view =
    let rid_table = Replica.rid_table a.core in
    let state = App.state a.core.app in
    let base = H.current_counter a.hybrid in
    adopt_new_view a ~view ~base ~state ~rid_table;
    Replica.broadcast a.core ~to_:a.core.peer_ids (a.new_view ~view ~base ~state ~rid_table)

  (* The view-change hooks, around the protocol's vote, its re-proposal
     after [announce_view] and its own wipe. *)
  let hooks a ~vote ~take_over ~wipe =
    {
      Replica.vote;
      take_over = (fun ~view ~max_exec:_ -> take_over ~view);
      progress = (fun () -> a.log.last_exec);
      wipe =
        (fun () ->
          wipe ();
          restart a ~last_exec:0);
      adopt_peer = (fun ~progress -> restart a ~last_exec:progress);
    }

  (* The batch is the native unit, so the checker's atomicity invariant
     covers every batch. Commits and execution need [quorum] votes. A
     transfer moves the frontier past counters this replica never saw;
     [installed] adds the protocol's own bookkeeping to the resync. *)
  let create (core : 'msg Replica.t) ~keychain ~protection ~quorum ~commit ~new_view ~order
      ~voters ~serves ~installed =
    let id = core.Replica.id in
    let rec a =
      lazy
        {
          core;
          hybrid = H.make ~id ~key:(Keychain.component keychain id) ~protection;
          keychain;
          log =
            Replica.log ~fresh:fresh_entry
              ~agreed:(fun e -> Quorum.reached e.commit_votes ~threshold:quorum)
              ~batch:(fun e -> e.requests)
              ~executed:(fun e -> e.executed)
              ~executing:(fun ~seq e ->
                e.executed <- true;
                if core.chk >= 0 then begin
                  Check.commit ~session:core.chk ~replica:core.id ~view:core.view ~seq
                    ~digest:(Types.batch_digest e.requests)
                    ~signers:(Quorum.count e.commit_votes)
                    ~quorum ~faulty:(Replica.faulty core);
                  Replica.check_batch core ~view:core.view ~seq e.requests
                end;
                if core.spans && !Obs.trace_on then
                  Ring.async_end core.obs.Obs.ring ~time:(Engine.now core.engine) ~cat:Obs.Cat.repl
                    ~id:(Obs.repl_counter_span ~replica:core.id ~counter:seq)
                    ~arg:(List.length e.requests))
              ~order ~voters ~serves
              ~installed:(fun () ->
                installed ();
                resync (Lazy.force a));
          mono = Usig.Monotonic.create ();
          baseline_pending = Array.make core.Replica.n false;
          gap_drops = 0;
          commit;
          new_view;
        }
    in
    Lazy.force a

  (* In-flight instances = the attested counter minus the execution
     frontier. *)
  let attach_batcher a batching =
    Replica.attach_batcher a.core a.log batching ~in_flight:(fun () ->
        Int64.to_int (H.current_counter a.hybrid) - a.log.last_exec)
end

module Make (H : HYBRID) = struct
  type hybrid = H.t
  type cert = H.cert

  type msg =
    | Request of Types.request
    | Prepare of { view : int; requests : Types.request list; cert : cert }
    | Commit of { view : int; requests : Types.request list; primary_cert : cert; cert : cert }
    | Reply of Types.reply
    | Req_view_change of { new_view : int }
    | New_view of { view : int; base : int64; state : int64; rid_table : (int * (int * int64)) list }
    | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
    | Fetch_state of { have : int }
    | State_chunk of Checkpoint.chunk

  type config = {
    f : int;
    n_clients : int;
    request_timeout : int;
    vc_timeout : int;
    usig_protection : Register.protection;
    keychain_master : int64;
    batch_window : int;  (* 0 = order immediately; >0 = buffer this long *)
    max_batch : int;  (* flush early when the buffer reaches this size *)
    checkpoint : Checkpoint.config option;  (* None = legacy retention GC *)
    multicast : bool;  (* route fan-outs through the fabric's multicast *)
    batching : Types.batching option;
        (* the cross-protocol batching/pipelining config; when active it
           supersedes the legacy batch_window/max_batch fields and adds
           the pipeline-depth gate. None = legacy behaviour. *)
  }

  let default_config =
    {
      f = 1;
      n_clients = 2;
      request_timeout = 4000;
      vc_timeout = 2500;
      usig_protection = Register.Secded;
      keychain_master = 0xC0FFEEL;
      batch_window = 0;
      max_batch = 16;
      checkpoint = None;
      multicast = false;
      batching = None;
    }

  let n_replicas config = (2 * config.f) + 1

  module A = Agreement (H)

  type replica = msg A.t

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

  (* Order one batch under the next certificate. Batch sizes are recorded
     by the Batcher that sealed it, so each batch is counted once. *)
  let order_batch (r : replica) requests =
    let requests =
      List.filter
        (fun req -> not (Digest_map.mem r.log.ordered (Types.request_digest req)))
        requests
    in
    if requests <> [] then begin
      match H.create_cert r.hybrid (Types.batch_digest requests) with
      | Error _ -> ()  (* hybrid fail-stop: the group will time out on us *)
      | Ok cert ->
        let view = r.core.view in
        Replica.mark_ordered r.log ~seq:0 requests;
        if !Obs.trace_on then
          Ring.instant r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_event ~replica:r.core.id ~code:Obs.code_prepare)
            ~arg:(List.length requests);
        A.note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:r.core.id;
        if Replica.equivocating r.core then begin
          (* The primary *wants* to equivocate, but the hybrid refuses to
             reuse a counter: the best it can do is certify a second, fake
             batch with the *next* counter and send each half a different
             one. Both are uniquely ordered; verifiers converge on both. *)
          let sample = List.hd requests in
          let fake =
            [ Types.make_request ~client:sample.Types.client
                ~rid:(sample.Types.rid + 1_000_000) ~payload:0L ]
          in
          match H.create_cert r.hybrid (Types.batch_digest fake) with
          | Error _ ->
            Replica.broadcast r.core ~to_:r.core.peer_ids (Prepare { view; requests; cert })
          | Ok fake_cert ->
            A.note_entry r ~counter:(H.cert_counter fake_cert) ~requests:fake ~voter:r.core.id;
            let backups = r.core.peer_ids in
            let half = Array.length backups / 2 in
            Array.iteri
              (fun i dst ->
                if i < half then begin
                  Replica.send r.core ~dst (Prepare { view; requests = fake; cert = fake_cert });
                  Replica.send r.core ~dst (Prepare { view; requests; cert })
                end
                else begin
                  Replica.send r.core ~dst (Prepare { view; requests; cert });
                  Replica.send r.core ~dst (Prepare { view; requests = fake; cert = fake_cert })
                end)
              backups
        end
        else Replica.broadcast r.core ~to_:r.core.peer_ids (Prepare { view; requests; cert });
        Replica.try_execute r.core r.log
    end

  (* The new primary re-proposes every pending request, in chunks of the
     batch size in force. *)
  let become_primary (config : config) r ~view =
    A.announce_view r ~view;
    let chunk_size =
      match config.batching with
      | Some b when Batcher.active b -> max 1 b.Types.max_batch
      | Some _ | None -> max 1 config.max_batch
    in
    let rec chunks = function
      | [] -> ()
      | rest ->
        let rec take k acc = function
          | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        let batch, tl = take chunk_size [] rest in
        order_batch r batch;
        chunks tl
    in
    chunks (Replica.pending_sorted r.core)

  let handle (r : replica) ~src msg =
    if Replica.live r.core then
      match msg with
      | Request request -> Replica.on_request r.core r.log request
      | Prepare { view; requests; cert } -> A.on_prepare r ~src ~view ~requests ~cert
      | Commit { view; requests; primary_cert; cert } ->
        A.on_commit r ~src ~view ~requests ~primary_cert ~cert
      | Req_view_change { new_view } -> Replica.on_vote r.core ~src ~view:new_view ~value:0
      | New_view { view; base; state; rid_table } ->
        if Replica.accepts_new_view r.core ~src ~view then
          A.adopt_new_view r ~view ~base ~state ~rid_table
      | Checkpoint_vote { seq; digest } -> Replica.on_checkpoint_vote r.core r.log ~src ~seq ~digest
      | Fetch_state { have } -> Replica.on_fetch_state r.core r.log ~src ~have
      | State_chunk chunk -> Replica.on_state_chunk r.core r.log ~src chunk
      | Reply _ -> ()

  let spec (config : config) =
    {
      Replica.label = H.module_name;
      protocol = H.protocol_name;
      n = n_replicas config;
      n_clients = config.n_clients;
      client_quorum = config.f + 1;
      request_timeout = config.request_timeout;
      watch_delay = config.vc_timeout;
      checkpoint = config.checkpoint;
      cp_quorum = config.f + 1;
      multicast = config.multicast;
      spans = true;
      count_views = true;
    }

  let make_replica (config : config) keychain (core : msg Replica.t) =
    let rec r =
      lazy
        (A.create core ~keychain ~protection:config.usig_protection ~quorum:(config.f + 1)
           ~commit:(fun ~view ~requests ~primary_cert ~cert ->
             Commit { view; requests; primary_cert; cert })
           ~new_view:(fun ~view ~base ~state ~rid_table -> New_view { view; base; state; rid_table })
           ~order:(fun requests -> order_batch (Lazy.force r) requests)
           ~voters:(fun () -> core.peer_ids)
           ~serves:(fun () -> true)
           ~installed:ignore)
    in
    Lazy.force r

  let hooks config r =
    A.hooks r
      ~vote:(fun new_view -> Req_view_change { new_view })
      ~take_over:(become_primary config r) ~wipe:ignore

  (* The batching in force: the shared config when active, else a legacy
     [batch_window] re-expressed on the same Batcher with no pipeline
     bound. With neither, requests are certified one by one and no
     batcher sits on the path. *)
  let batching (config : config) =
    match config.batching with
    | Some b when Batcher.active b -> Some b
    | Some _ | None ->
      if config.batch_window > 0 then
        Some
          {
            Types.window_cycles = config.batch_window;
            max_batch = config.max_batch;
            pipeline_depth = max_int;
          }
      else None

  let start engine fabric config ?behaviors () =
    let keychain = Keychain.create ~master:config.keychain_master ~n:(n_replicas config) in
    let spec = spec config in
    let replicas, stats =
      Replica.start engine fabric kit spec ?behaviors ~hooks:(hooks config)
        (make_replica config keychain)
    in
    Array.iter
      (fun r ->
        A.attach_batcher r (batching config);
        fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
      replicas;
    let clients = Replica.clients engine fabric kit spec ~stats in
    { replicas; clients; shared_stats = stats }

  let submit t ~client ~payload = Replica.submit H.module_name t.clients ~client ~payload

  let stats t = t.shared_stats

  let replica_state t ~replica = App.state t.replicas.(replica).core.app

  let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

  let hybrid t ~replica = t.replicas.(replica).hybrid

  let cert_gap_drops t = Array.fold_left (fun acc (r : replica) -> acc + r.gap_drops) 0 t.replicas

  let set_offline t ~replica = Replica.set_offline t.replicas.(replica).core

  let set_online t ~replica = Replica.set_online t.replicas.(replica).core
end
