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
    mutable view : int;
    mutable last_exec_counter : int64;  (* primary counters up to here executed *)
    log : entry Slot_ring.t;  (* primary counter -> entry (current view) *)
    ordered : int Digest_map.t;  (* digests this primary already assigned *)
    mono : Usig.Monotonic.checker;  (* per-sender UI continuity *)
    baseline_pending : bool array;  (* per-sender resync after rejoin *)
    vc_rounds : Quorum.Rounds.t;
    mutable vc_voted : int;
    mutable own_commits_sent : int;
    mutable gap_drops : int;
  }

  type t = {
    engine : Engine.t;
    fabric : msg Transport.fabric;
    config : config;
    replicas : replica array;
    clients : msg Client.t array;
    shared_stats : Stats.t;
    keychain : Keychain.t;
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

  (* A request timer fired on a pending request: escalate past views whose
     primary never answered. *)
  let on_expire r () =
    if r.core.online then begin
      let new_view = max r.view r.vc_voted + 1 in
      r.vc_voted <- new_view;
      Replica.broadcast r.core ~to_:r.core.all_ids (Req_view_change { new_view })
    end

  (* One certificate covers a whole batch: the digest chains the requests in
     order, so verifiers agree on both membership and sequence. The shared
     definition computes exactly the historical per-protocol fold. *)
  let batch_digest = Types.batch_digest

  let rec try_execute r =
    let next = Int64.add r.last_exec_counter 1L in
    let next_i = Int64.to_int next in
    if Replica.below_high r.core next_i then begin
      let slot = Slot_ring.slot r.log next_i in
      if slot >= 0 then begin
        let e = Slot_ring.entry r.log slot in
        if (not e.executed) && Quorum.reached e.commit_votes ~threshold:(r.f + 1) then begin
          Replica.check_window r.core ~seq:next_i;
          e.executed <- true;
          r.last_exec_counter <- next;
          if r.core.chk >= 0 then begin
            Check.commit ~session:r.core.chk ~replica:r.core.id ~view:r.view ~seq:next_i
              ~digest:(batch_digest e.requests)
              ~signers:(Quorum.count e.commit_votes)
              ~quorum:(r.f + 1)
              ~faulty:(Replica.faulty r.core);
            (* The batch is this protocol's native unit, so the atomicity
               invariant covers singletons and legacy-window batches too. *)
            Replica.check_batch r.core ~view:r.view ~seq:next_i e.requests
          end;
          if !Obs.trace_on then
            Ring.async_end r.core.obs.Obs.ring ~time:(Engine.now r.core.engine) ~cat:Obs.Cat.repl
              ~id:(Obs.repl_counter_span ~replica:r.core.id ~counter:next_i)
              ~arg:(List.length e.requests);
          List.iter (Replica.execute r.core) e.requests;
          Replica.kick r.core;
          on_cp_advance r (Replica.after_exec r.core r.log ~seq:next_i ~voters:r.core.peer_ids);
          try_execute r
        end
      end
    end

  (* Stable checkpoint advanced from [prev]: truncate, resume a parked
     execution. *)
  and on_cp_advance r prev =
    if prev >= 0 then begin
      Replica.stabilized r.core r.log ~prev;
      try_execute r
    end

  (* --- certified state transfer (see Checkpoint, DESIGN.md §8) --- *)

  let executed_batch (e : entry) = if e.executed then e.requests else []

  let on_fetch_state r ~src ~have =
    match r.core.cp with
    | None -> ()
    | Some cp ->
      Replica.serve r.core cp ~src ~have ~view:r.view
        ~suffix:
          (Replica.log_suffix r.log ~from:(Checkpoint.low cp)
             ~upto:(Int64.to_int r.last_exec_counter) ~batch:executed_batch)

  let on_checkpoint_vote r ~src ~seq ~digest =
    match r.core.cp with
    | None -> ()
    | Some cp ->
      on_cp_advance r (Checkpoint.note_vote cp ~seq ~digest ~voter:src);
      Replica.maybe_catchup r.core cp

  let install_transfer (r : replica) (c : Checkpoint.completion) =
    r.view <- max r.view c.Checkpoint.c_view;
    r.vc_voted <- max r.vc_voted r.view;
    r.last_exec_counter <- Int64.of_int (Replica.install ~log:r.log r.core c);
    (* We missed every hybrid counter issued during the outage. *)
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
    try_execute r

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
    let entry, fresh = Slot_ring.bind r.log (Int64.to_int counter) in
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
      r.own_commits_sent <- r.own_commits_sent + 1;
      ignore (note_entry r ~counter:(H.cert_counter primary_cert) ~requests ~voter:r.core.id);
      Replica.broadcast r.core ~to_:r.core.peer_ids (Commit { view; requests; primary_cert; cert });
      try_execute r

  (* Order one batch under the next certificate. Batch sizes are recorded
     by the Batcher that sealed it, so each batch is counted once. *)
  let order_batch (r : replica) requests =
    let requests =
      List.filter (fun req -> not (Digest_map.mem r.ordered (Types.request_digest req))) requests
    in
    if requests <> [] then begin
      match H.create_cert r.hybrid_instance (batch_digest requests) with
      | Error _ -> ()  (* hybrid fail-stop: the group will time out on us *)
      | Ok cert ->
        List.iter (fun req -> Digest_map.set r.ordered (Types.request_digest req) 0) requests;
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
            Replica.broadcast r.core ~to_:r.core.peer_ids (Prepare { view = r.view; requests; cert })
          | Ok fake_cert ->
            ignore (note_entry r ~counter:(H.cert_counter fake_cert) ~requests:fake ~voter:r.core.id);
            let backups = r.core.peer_ids in
            let half = Array.length backups / 2 in
            Array.iteri
              (fun i dst ->
                if i < half then begin
                  Replica.send r.core ~dst (Prepare { view = r.view; requests = fake; cert = fake_cert });
                  Replica.send r.core ~dst (Prepare { view = r.view; requests; cert })
                end
                else begin
                  Replica.send r.core ~dst (Prepare { view = r.view; requests; cert });
                  Replica.send r.core ~dst (Prepare { view = r.view; requests = fake; cert = fake_cert })
                end)
              backups
        end
        else Replica.broadcast r.core ~to_:r.core.peer_ids (Prepare { view = r.view; requests; cert });
        try_execute r
    end

  let adopt_new_view r ~view ~base ~state ~rid_table =
    r.view <- view;
    r.vc_voted <- max r.vc_voted view;
    Slot_ring.reset r.log;
    Digest_map.reset r.ordered;
    r.last_exec_counter <- base;
    (* Counter expectations restart from whatever peers send next. *)
    Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
    Replica.adopt r.core ~state ~rid_table ~seq:(Int64.to_int base)

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

  let on_req_view_change r ~src ~new_view =
    if new_view > r.view then begin
      let voters =
        Quorum.Rounds.note r.vc_rounds ~current:r.view ~view:new_view ~voter:src ~value:0
      in
      if voters >= r.f + 1 then begin
        if r.vc_voted < new_view then begin
          r.vc_voted <- new_view;
          Replica.broadcast r.core ~to_:r.core.all_ids (Req_view_change { new_view })
        end;
        if primary_of ~view:new_view ~n:r.core.n = r.core.id then begin
          Replica.view_changed r.core ~view:new_view;
          become_primary r ~view:new_view
        end
      end
    end

  let on_request r (request : Types.request) =
    if Replica.executed r.core request then Replica.reply_cached r.core request
    else begin
      let digest = Types.request_digest request in
      let was_pending = Replica.admit r.core request digest in
      if is_primary r then (
        match r.core.batcher with
        | Some b ->
          (* Retransmissions of a request already buffered (still pending)
             or already ordered must not enter a second batch. *)
          if not (was_pending || Digest_map.mem r.ordered digest) then Batcher.add b request
        | None -> order_batch r [ request ])
      else begin
        Replica.send r.core ~dst:(primary_of ~view:r.view ~n:r.core.n) (Request request);
        Replica.watch r.core digest
      end
    end

  let on_prepare r ~src ~view ~requests ~cert =
    if view = r.view && src = primary_of ~view ~n:r.core.n && H.cert_signer cert = src
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
    if view = r.view && H.cert_signer cert = src
       && H.cert_signer primary_cert = primary_of ~view ~n:r.core.n
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
        try_execute r
      end
    end

  let on_new_view r ~src ~view ~base ~state ~rid_table =
    if view > r.view && src = primary_of ~view ~n:r.core.n then
      adopt_new_view r ~view ~base ~state ~rid_table

  let handle (r : replica) ~src msg =
    if Replica.live r.core then
      match msg with
      | Request request -> on_request r request
      | Prepare { view; requests; cert } -> on_prepare r ~src ~view ~requests ~cert
      | Commit { view; requests; primary_cert; cert } ->
        on_commit r ~src ~view ~requests ~primary_cert ~cert
      | Req_view_change { new_view } -> on_req_view_change r ~src ~new_view
      | New_view { view; base; state; rid_table } -> on_new_view r ~src ~view ~base ~state ~rid_table
      | Checkpoint_vote { seq; digest } -> on_checkpoint_vote r ~src ~seq ~digest
      | Fetch_state { have } -> on_fetch_state r ~src ~have
      | State_chunk chunk ->
        Replica.on_state_chunk r.core ~src ~last_exec:(Int64.to_int r.last_exec_counter) chunk
          ~install:(install_transfer r)
      | Reply _ -> ()

  let spec (config : config) =
    {
      Replica.label = "Minbft";
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
    let id = core.Replica.id and n = core.Replica.n in
    let r =
      {
        core;
        f = config.f;
        config;
        hybrid_instance =
          H.make ~id ~key:(Keychain.component keychain id) ~protection:config.usig_protection;
        keychain;
        view = 0;
        last_exec_counter = 0L;
        log = Replica.create_log fresh_entry;
        ordered = Digest_map.create ~capacity:64 ();
        mono = Usig.Monotonic.create ();
        baseline_pending = Array.make n false;
        vc_rounds = Quorum.Rounds.create ~n ();
        vc_voted = 0;
        own_commits_sent = 0;
        gap_drops = 0;
      }
    in
    core.Replica.on_expire <- on_expire r;
    r

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
    Quorum.check_n (n_replicas config) "Hybrid_bft.start";
    let keychain = Keychain.create ~master:config.keychain_master ~n:(n_replicas config) in
    let spec = spec config in
    let replicas, stats =
      Replica.start engine fabric kit spec ?behaviors (make_replica config keychain)
    in
    Array.iter
      (fun r ->
        (* In-flight instances = the hybrid's attested counter minus the
           execution frontier. *)
        Replica.attach_batcher r.core (batching config) ~seal:(order_batch r)
          ~in_flight:(fun () ->
            Int64.to_int (H.current_counter r.hybrid_instance) - Int64.to_int r.last_exec_counter)
          ~frontier:(fun () -> Int64.to_int r.last_exec_counter);
        fabric.Transport.set_handler r.core.id (fun ~src msg -> handle r ~src msg))
      replicas;
    let clients = Replica.clients engine fabric kit spec ~stats in
    { engine; fabric; config; replicas; clients; shared_stats = stats; keychain }

  let submit t ~client ~payload = Replica.submit "Minbft" t.clients ~client ~payload

  let stats t = t.shared_stats

  let view t ~replica = t.replicas.(replica).view

  let replica_state t ~replica = App.state t.replicas.(replica).core.app

  let set_replica_state t ~replica state = App.set_state t.replicas.(replica).core.app state

  let hybrid t ~replica = t.replicas.(replica).hybrid_instance

  let cert_gap_drops t = Array.fold_left (fun acc r -> acc + r.gap_drops) 0 t.replicas

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
        r.view <- 0;
        r.vc_voted <- 0;
        r.last_exec_counter <- 0L;
        Slot_ring.reset r.log;
        Digest_map.reset r.ordered;
        Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true;
        Replica.rejoin_wiped r.core cp
      | None -> (
        (* Legacy model: free state copy from the most advanced online peer. *)
        match
          Replica.legacy_rejoin r.core t.replicas ~core:(fun p -> p.core)
            ~progress:(fun p -> Int64.to_int p.last_exec_counter)
        with
        | Some peer ->
          r.view <- peer.view;
          r.vc_voted <- max r.vc_voted peer.view;
          r.last_exec_counter <- peer.last_exec_counter;
          Slot_ring.reset r.log;
          Digest_map.reset r.ordered;
          Array.fill r.baseline_pending 0 (Array.length r.baseline_pending) true
        | None -> ())
    end
end
