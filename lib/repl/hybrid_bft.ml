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
    | New_view of {
        view : int;
        base : int64;
        state : int64;
        rid_table : (int * (int * int64)) list;
      }
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
    Resoc_des.Engine.t ->
    msg Transport.fabric ->
    config ->
    ?behaviors:Behavior.t array ->
    unit ->
    t

  val submit : t -> client:int -> payload:int64 -> unit
  val stats : t -> Stats.t
  val view : t -> replica:int -> int
  val replica_state : t -> replica:int -> int64
  val set_replica_state : t -> replica:int -> int64 -> unit
  val hybrid : t -> replica:int -> hybrid
  val cert_gap_drops : t -> int
  val replica_online : t -> replica:int -> bool
  val set_offline : t -> replica:int -> unit
  val set_online : t -> replica:int -> unit
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

  (* Pooled in the slot ring, reset in place when a counter claims the
     slot; commit votes are a quorum bitset. *)
  type entry = {
    mutable requests : Types.request list;  (* the batch bound to this counter *)
    mutable commit_votes : Quorum.t;  (* replicas vouching for this counter *)
    mutable executed : bool;
  }

  let fresh_entry _ = { requests = []; commit_votes = Quorum.empty; executed = false }

  type replica = {
    core : msg Replica.t;
    f : int;
    config : config;
    hybrid_instance : H.t;
    keychain : Keychain.t;
    log : entry Replica.log;  (* primary counter -> entry (current view) *)
    mono : Usig.Monotonic.checker;  (* per-sender UI continuity *)
    baseline_pending : bool array;  (* per-sender resync after rejoin *)
    mutable gap_drops : int;
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

  (* One certificate covers a whole batch: the digest chains the requests in
     order, so verifiers agree on both membership and sequence. The shared
     definition computes exactly the historical per-protocol fold. *)
  let batch_digest = Types.batch_digest

  (* We missed every hybrid counter issued while the log jumped (a new
     view, a rejoin or a transfer): re-baseline every sender. *)
  let resync r = Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true

  (* UI continuity: exact next counter per sender, with a one-shot baseline
     resync after this replica rejoined (it missed intermediate counters). *)
  let continuity_ok r ~signer ~counter =
    if r.baseline_pending.(signer) then begin
      (* First UI from this sender since we (re)joined: adopt its counter as
         the new baseline — we cannot tell which counters we missed. *)
      r.baseline_pending.(signer) <- false;
      Usig.Monotonic.force r.mono ~signer ~counter;
      true
    end
    else
      match Usig.Monotonic.check r.mono ~signer ~counter with
      | Usig.Monotonic.Accept -> true
      | Usig.Monotonic.Replay -> false
      | Usig.Monotonic.Gap _ ->
        r.gap_drops <- r.gap_drops + 1;
        false

  let verify_cert (r : replica) ~digest cert =
    H.verify_cert ~key:(Keychain.component r.keychain (H.cert_signer cert)) ~digest cert

  (* Record the authenticated (request, counter) binding from the primary and
     add [voter]'s commit vote. *)
  let note_entry r ~counter ~requests ~voter =
    let entry, fresh = Slot_ring.bind r.log.ring (Int64.to_int counter) in
    if fresh then begin
      entry.requests <- requests;
      entry.commit_votes <- Quorum.empty;
      entry.executed <- false;
      if !Obs.trace_on then
        Ring.async_begin r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
          ~id:(Obs.repl_counter_span ~replica:r.core.id ~counter:(Int64.to_int counter))
          ~arg:(List.length requests)
    end;
    entry.commit_votes <- Quorum.add entry.commit_votes voter;
    entry

  let send_own_commit r ~view ~requests ~primary_cert =
    match H.create_cert r.hybrid_instance (batch_digest requests) with
    | Error _ -> ()  (* our hybrid fail-stopped; we cannot vouch *)
    | Ok cert ->
      ignore (note_entry r ~counter:(H.cert_counter primary_cert) ~requests ~voter:r.core.id);
      Replica.broadcast r.core ~to_:r.core.peer_ids (Commit { view; requests; primary_cert; cert });
      Replica.try_execute r.core r.log

  (* Order one batch under the next certificate. Batch sizes are recorded
     by the Batcher that sealed it, so each batch is counted once. *)
  let order_batch (r : replica) requests =
    let requests =
      List.filter
        (fun req -> not (Digest_map.mem r.log.ordered (Types.request_digest req)))
        requests
    in
    if requests <> [] then begin
      match H.create_cert r.hybrid_instance (batch_digest requests) with
      | Error _ -> ()  (* hybrid fail-stop: the group will time out on us *)
      | Ok cert ->
        let view = r.core.view in
        Replica.mark_ordered r.log ~seq:0 requests;
        if !Obs.trace_on then
          Ring.instant r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
            ~id:(Obs.repl_event ~replica:r.core.id ~code:Obs.code_prepare)
            ~arg:(List.length requests);
        ignore (note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:r.core.id);
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
          match H.create_cert r.hybrid_instance (batch_digest fake) with
          | Error _ ->
            Replica.broadcast r.core ~to_:r.core.peer_ids (Prepare { view; requests; cert })
          | Ok fake_cert ->
            ignore (note_entry r ~counter:(H.cert_counter fake_cert) ~requests:fake ~voter:r.core.id);
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

  let adopt_new_view r ~view ~base ~state ~rid_table =
    Replica.restart r.log ~last_exec:(Int64.to_int base);
    resync r;
    Replica.adopt r.core ~view ~state ~rid_table ~seq:(Int64.to_int base)

  let become_primary r ~view =
    let rid_table = Replica.rid_table r.core in
    let state = App.state r.core.app in
    let base = H.current_counter r.hybrid_instance in
    adopt_new_view r ~view ~base ~state ~rid_table;
    Replica.broadcast r.core ~to_:r.core.peer_ids (New_view { view; base; state; rid_table });
    let chunk_size =
      match r.config.batching with
      | Some b when Batcher.active b -> max 1 b.Types.max_batch
      | Some _ | None -> max 1 r.config.max_batch
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

  let on_request r (request : Types.request) =
    if Replica.executed r.core request then Replica.reply_cached r.core request
    else begin
      let digest = Types.request_digest request in
      let was_pending = Replica.admit r.core request digest in
      if Replica.is_primary r.core then Replica.propose r.core r.log request ~was_pending digest
      else begin
        Replica.send r.core ~dst:(Replica.primary r.core r.core.view) (Request request);
        Replica.watch r.core digest
      end
    end

  let on_prepare r ~src ~view ~requests ~cert =
    if view = r.core.view && src = Replica.primary r.core view && H.cert_signer cert = src
       && requests <> []
    then begin
      if verify_cert r ~digest:(batch_digest requests) cert
         && continuity_ok r ~signer:src ~counter:(H.cert_counter cert)
      then begin
        List.iter
          (fun req -> Hashtbl.replace r.core.pending (Types.request_digest req) req)
          requests;
        ignore (note_entry r ~counter:(H.cert_counter cert) ~requests ~voter:src);
        send_own_commit r ~view ~requests ~primary_cert:cert
      end
      else
        (* Bad or gapped certificate from the primary: keep pressure on the
           timers of whichever requests we already know. *)
        List.iter
          (fun req ->
            let digest = Types.request_digest req in
            if Hashtbl.mem r.core.pending digest then Replica.watch r.core digest)
          requests
    end

  let on_commit r ~src ~view ~requests ~primary_cert ~cert =
    if view = r.core.view && H.cert_signer cert = src
       && H.cert_signer primary_cert = Replica.primary r.core view
       && requests <> []
    then begin
      let digest = batch_digest requests in
      if verify_cert r ~digest primary_cert && verify_cert r ~digest cert
         && continuity_ok r ~signer:src ~counter:(H.cert_counter cert)
      then begin
        (* The primary's certificate authenticates the (batch, counter)
           binding even if we never saw the prepare directly. *)
        ignore
          (note_entry r
             ~counter:(H.cert_counter primary_cert)
             ~requests
             ~voter:(H.cert_signer primary_cert));
        ignore (note_entry r ~counter:(H.cert_counter primary_cert) ~requests ~voter:src);
        Replica.try_execute r.core r.log
      end
    end

  let handle (r : replica) ~src msg =
    if Replica.live r.core then
      match msg with
      | Request request -> on_request r request
      | Prepare { view; requests; cert } -> on_prepare r ~src ~view ~requests ~cert
      | Commit { view; requests; primary_cert; cert } ->
        on_commit r ~src ~view ~requests ~primary_cert ~cert
      | Req_view_change { new_view } -> Replica.on_vote r.core ~src ~view:new_view ~value:0
      | New_view { view; base; state; rid_table } ->
        if Replica.accepts_new_view r.core ~src ~view then
          adopt_new_view r ~view ~base ~state ~rid_table
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

  (* The log's accessors close over the replica they belong to. The
     batch is this protocol's native unit, so the checker's atomicity
     invariant covers singletons and legacy-window batches too. *)
  let make_replica (config : config) keychain (core : msg Replica.t) =
    let id = core.Replica.id and n = core.Replica.n and f = config.f in
    let rec r =
      lazy
        {
          core;
          f;
          config;
          hybrid_instance =
            H.make ~id ~key:(Keychain.component keychain id) ~protection:config.usig_protection;
          keychain;
          log =
            Replica.log ~fresh:fresh_entry
              ~agreed:(fun e -> Quorum.reached e.commit_votes ~threshold:(f + 1))
              ~batch:(fun e -> e.requests)
              ~executed:(fun e -> e.executed)
              ~executing:(fun ~seq e ->
                e.executed <- true;
                if core.chk >= 0 then begin
                  Check.commit ~session:core.chk ~replica:core.id ~view:core.view ~seq
                    ~digest:(batch_digest e.requests)
                    ~signers:(Quorum.count e.commit_votes)
                    ~quorum:(f + 1) ~faulty:(Replica.faulty core);
                  Replica.check_batch core ~view:core.view ~seq e.requests
                end;
                if !Obs.trace_on then
                  Ring.async_end core.obs.Obs.ring ~time:(Engine.now core.engine) ~cat:Obs.Cat.repl
                    ~id:(Obs.repl_counter_span ~replica:core.id ~counter:seq)
                    ~arg:(List.length e.requests))
              ~order:(fun requests -> order_batch (Lazy.force r) requests)
              ~voters:(fun () -> core.peer_ids)
              ~serves:(fun () -> true)
              ~installed:(fun () -> resync (Lazy.force r));
          mono = Usig.Monotonic.create ();
          baseline_pending = Array.make n false;
          gap_drops = 0;
        }
    in
    Lazy.force r

  let hooks r =
    {
      Replica.vote = (fun new_view -> Req_view_change { new_view });
      take_over = (fun ~view ~max_exec:_ -> become_primary r ~view);
      progress = (fun () -> r.log.last_exec);
      wipe =
        (fun () ->
          Replica.restart r.log ~last_exec:0;
          resync r);
      adopt_peer =
        (fun ~progress ->
          Replica.restart r.log ~last_exec:progress;
          resync r);
    }

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
      Replica.start engine fabric kit spec ?behaviors ~hooks (make_replica config keychain)
    in
    Array.iter
      (fun r ->
        (* In-flight instances = the hybrid's attested counter minus the
           execution frontier. *)
        Replica.attach_batcher r.core r.log (batching config) ~in_flight:(fun () ->
            Int64.to_int (H.current_counter r.hybrid_instance) - r.log.last_exec);
        fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
      replicas;
    let clients = Replica.clients engine fabric kit spec ~stats in
    { replicas; clients; shared_stats = stats }

  let submit t ~client ~payload = Replica.submit H.module_name t.clients ~client ~payload

  let stats t = t.shared_stats

  let view t ~replica = t.replicas.(replica).core.view

  let replica_state t ~replica = App.state t.replicas.(replica).core.app

  let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

  let hybrid t ~replica = t.replicas.(replica).hybrid_instance

  let cert_gap_drops t = Array.fold_left (fun acc r -> acc + r.gap_drops) 0 t.replicas

  let replica_online t ~replica = t.replicas.(replica).core.online

  let set_offline t ~replica = Replica.set_offline t.replicas.(replica).core

  let set_online t ~replica = Replica.set_online t.replicas.(replica).core
end
