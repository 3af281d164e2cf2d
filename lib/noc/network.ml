module Engine = Resoc_des.Engine
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check

type routing = Xy | Xy_with_yx_fallback | Adaptive

type config = {
  router_latency : int;
  bytes_per_cycle : int;
  local_latency : int;
  routing : routing;
  multicast : bool;
}

let default_config =
  { router_latency = 2; bytes_per_cycle = 16; local_latency = 1; routing = Xy; multicast = false }

(* Mutation knobs for the checker self-tests (DESIGN.md section 7): each
   breaks one property the NoC invariants guard, proving the checker
   fires. Only ever set under --check in tests. *)
let test_skip_up_check = ref false  (* transmit across failed links/routers *)
let test_detour_loop = ref false  (* bounce adaptive flights back and forth *)
let test_blackhole = ref false  (* drop adaptive flights despite a live route *)
let test_mcast_skip_branch = ref false  (* silently prune the last child at every fork *)
let test_mcast_dup_deliver = ref false  (* deliver every multicast payload twice *)

(* A message in flight is a pooled record spread across parallel arrays:
   current/previous router, endpoints, injection time, size, hop count,
   flight id, payload, and one per-slot [advance] closure built when the
   slot is first created and reused for every hop of every flight that
   occupies the slot. Routing is recomputed one hop at a time — either
   dimension-order ([Mesh.next_hop]) or via the epoch-stamped adaptive
   tables ([Adaptive.next_hop]), which are refreshed synchronously on
   every fail/repair event through a [Mesh.on_change] subscription. Link
   occupancy and load live in dense int arrays indexed by
   [Mesh.link_id]. In steady state a unicast allocates only the payload
   box; the engine, heap, and per-hop bookkeeping are all
   allocation-free. *)
type 'msg t = {
  engine : Engine.t;
  mesh : Mesh.t;
  config : config;
  adaptive : Adaptive.t option;  (* Some iff routing = Adaptive *)
  mcast : Mcast.t option;  (* Some iff config.multicast *)
  handlers : (src:int -> 'msg -> unit) option array;
  busy_until : int array;  (* by link id *)
  load : int array;  (* by link id *)
  mutable fl_cur : int array;
  mutable fl_prev : int array;  (* router the flight came from, -1 at source *)
  mutable fl_src : int array;
  mutable fl_dst : int array;  (* unicast destination; -1 on multicast branches *)
  mutable fl_start : int array;
  mutable fl_bytes : int array;
  mutable fl_hops : int array;
  mutable fl_flight : int array;  (* per-send unique id for the checker *)
  mutable fl_mc : int array;  (* multicast instance slot, -1 = unicast *)
  mutable fl_xfirst : Bytes.t;
  mutable fl_msg : 'msg option array;
  mutable fl_advance : (unit -> unit) array;
  mutable fl_free_next : int array;
  mutable fl_free_head : int;
  (* Multicast instances are pooled like flights: per slot a forwarding
     map over the tree marked at send time (bits 0-3: forward out of that
     direction; bit 4: deliver here), the live branch count, and the
     shared payload box. An instance retires when its last branch ends. *)
  mutable mc_fwd : Bytes.t array;  (* by instance slot: one byte per node *)
  mutable mc_live : int array;  (* outstanding branches (+ pending loopback) *)
  mutable mc_src : int array;
  mutable mc_start : int array;
  mutable mc_bytes : int array;
  mutable mc_id : int array;  (* per-send unique id for the checker *)
  mutable mc_epoch : int array;  (* mesh epoch at send, for strict checking *)
  mutable mc_msg : 'msg option array;
  mutable mc_free_next : int array;
  mutable mc_free_head : int;
  mc_stack : int array;  (* DFS scratch for lost-subtree accounting *)
  mutable next_flight : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes_sent : int;
  mutable partition_handler : (reachable:int -> total:int -> unit) option;
  obs : Obs.t;
  obs_link_base : int;  (* counter cells, one per link id *)
  obs_delivered : int;
  obs_dropped : int;
  obs_latency : Registry.histogram;
  obs_reroutes : int;  (* adaptive hops that deviate from dimension order *)
  obs_recomputes : int;
  obs_recompute_visits : int;  (* cumulative BFS cost of table recomputes *)
  obs_failed_links : int;  (* gauge *)
  obs_failed_routers : int;  (* gauge *)
  obs_stretch : Registry.histogram;  (* delivered hops minus manhattan *)
  mutable obs_last_visits : int;
  mutable obs_last_recomputes : int;
  mcast_obs : bool;  (* metrics on at creation AND multicast mode on *)
  obs_mcast_sends : int;
  obs_mcast_forks : int;
  obs_mcast_deliveries : int;
  obs_mcast_fanout : Registry.histogram;
  chk : int;  (* resoc_check network id, -1 when checking is off *)
}

let sync_adaptive_obs t ad =
  if !Obs.metrics_on then begin
    let v = Adaptive.visits ad and r = Adaptive.recomputes ad in
    Registry.add t.obs.Obs.metrics t.obs_recompute_visits (v - t.obs_last_visits);
    Registry.add t.obs.Obs.metrics t.obs_recomputes (r - t.obs_last_recomputes);
    t.obs_last_visits <- v;
    t.obs_last_recomputes <- r
  end

(* Zero-alloc fold over the loaded links: the [hop_load] data without
   the assoc list, for hot sampling sites. *)
let iter_hop_load t f =
  let load = t.load in
  for lid = 0 to Array.length load - 1 do
    let n = Array.unsafe_get load lid in
    if n > 0 then f ~lid ~load:n
  done

let create engine mesh config =
  if config.router_latency < 0 || config.bytes_per_cycle <= 0 || config.local_latency < 0 then
    invalid_arg "Network.create: invalid config";
  let obs = Engine.obs engine in
  let metrics_on = !Obs.metrics_on in
  let obs_link_base, obs_delivered, obs_dropped, obs_latency =
    if metrics_on then
      ( Registry.counter_block obs.Obs.metrics ~n:(Mesh.n_link_ids mesh)
          ~name:(fun lid -> "noc.link." ^ string_of_int lid),
        Registry.counter obs.Obs.metrics "noc.delivered",
        Registry.counter obs.Obs.metrics "noc.dropped",
        Registry.histogram obs.Obs.metrics "noc.latency"
          ~bounds:[| 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |] )
    else (0, 0, 0, Registry.null_histogram)
  in
  let obs_reroutes, obs_recomputes, obs_recompute_visits, obs_failed_links, obs_failed_routers,
      obs_stretch =
    if metrics_on then
      ( Registry.counter obs.Obs.metrics "noc.reroutes",
        Registry.counter obs.Obs.metrics "noc.recomputes",
        Registry.counter obs.Obs.metrics "noc.recompute.visits",
        Registry.gauge obs.Obs.metrics "noc.failed_links",
        Registry.gauge obs.Obs.metrics "noc.failed_routers",
        Registry.histogram obs.Obs.metrics "noc.path_stretch"
          ~bounds:[| 0; 1; 2; 4; 8; 16; 32 |] )
    else (0, 0, 0, 0, 0, Registry.null_histogram)
  in
  let adaptive = match config.routing with Adaptive -> Some (Adaptive.create mesh) | _ -> None in
  (* Multicast obs instruments are creation-gated on the mode as well as
     the metrics flag, so a mode-off run emits exactly the same scalar
     set (BENCH byte-identity) even under --metrics. *)
  let mcast_obs = metrics_on && config.multicast in
  let obs_mcast_sends, obs_mcast_forks, obs_mcast_deliveries, obs_mcast_fanout =
    if mcast_obs then
      ( Registry.counter obs.Obs.metrics "noc.mcast.sends",
        Registry.counter obs.Obs.metrics "noc.mcast.forks",
        Registry.counter obs.Obs.metrics "noc.mcast.deliveries",
        Registry.histogram obs.Obs.metrics "noc.mcast.fanout"
          ~bounds:[| 1; 2; 4; 8; 16; 32; 64 |] )
    else (0, 0, 0, Registry.null_histogram)
  in
  let t =
    {
      engine;
      mesh;
      config;
      adaptive;
      mcast = (if config.multicast then Some (Mcast.create mesh) else None);
      handlers = Array.make (Mesh.n_nodes mesh) None;
      busy_until = Array.make (Mesh.n_link_ids mesh) 0;
      load = Array.make (Mesh.n_link_ids mesh) 0;
      fl_cur = [||];
      fl_prev = [||];
      fl_src = [||];
      fl_dst = [||];
      fl_start = [||];
      fl_bytes = [||];
      fl_hops = [||];
      fl_flight = [||];
      fl_mc = [||];
      fl_xfirst = Bytes.empty;
      fl_msg = [||];
      fl_advance = [||];
      fl_free_next = [||];
      fl_free_head = -1;
      mc_fwd = [||];
      mc_live = [||];
      mc_src = [||];
      mc_start = [||];
      mc_bytes = [||];
      mc_id = [||];
      mc_epoch = [||];
      mc_msg = [||];
      mc_free_next = [||];
      mc_free_head = -1;
      mc_stack = Array.make (Mesh.n_nodes mesh) 0;
      next_flight = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      bytes_sent = 0;
      partition_handler = None;
      obs;
      obs_link_base;
      obs_delivered;
      obs_dropped;
      obs_latency;
      obs_reroutes;
      obs_recomputes;
      obs_recompute_visits;
      obs_failed_links;
      obs_failed_routers;
      obs_stretch;
      obs_last_visits = 0;
      obs_last_recomputes = 0;
      mcast_obs;
      obs_mcast_sends;
      obs_mcast_forks;
      obs_mcast_deliveries;
      obs_mcast_fanout;
      chk = (if !Check.enabled then Check.new_network () else -1);
    }
  in
  (* Tables are recomputed on every fail/repair event (synchronously, via
     the mesh's change notification) and stamped with the mesh epoch; the
     same subscription keeps the failed-count gauges fresh and surfaces
     partition state to whoever registered interest. *)
  (match adaptive with
  | Some ad ->
    ignore (Adaptive.refresh ad);
    sync_adaptive_obs t ad;
    Mesh.on_change mesh (fun () ->
        let recomputed = Adaptive.refresh ad in
        sync_adaptive_obs t ad;
        if metrics_on then begin
          Registry.set t.obs.Obs.metrics t.obs_failed_links (Mesh.failed_link_count mesh);
          Registry.set t.obs.Obs.metrics t.obs_failed_routers (Mesh.failed_router_count mesh)
        end;
        if recomputed then
          match t.partition_handler with
          | Some f -> f ~reachable:(Adaptive.reachable_pairs ad) ~total:(Adaptive.total_pairs ad)
          | None -> ())
  | None ->
    if metrics_on then
      Mesh.on_change mesh (fun () ->
          Registry.set t.obs.Obs.metrics t.obs_failed_links (Mesh.failed_link_count mesh);
          Registry.set t.obs.Obs.metrics t.obs_failed_routers (Mesh.failed_router_count mesh)));
  (* Closing per-link load snapshot at trace export: one counter-track
     sample per loaded link, iterated without building the [hop_load]
     assoc list. *)
  if !Obs.trace_on then
    Obs.on_flush (fun () ->
        let time = Engine.now t.engine in
        iter_hop_load t (fun ~lid ~load ->
            Ring.sample t.obs.Obs.ring ~time ~cat:Obs.Cat.noc_link ~id:lid ~arg:load));
  t

let mesh t = t.mesh

let set_partition_handler t f = t.partition_handler <- Some f

let attach t ~node handler =
  if node < 0 || node >= Array.length t.handlers then invalid_arg "Network.attach: bad node";
  t.handlers.(node) <- Some handler

let detach t ~node =
  if node < 0 || node >= Array.length t.handlers then invalid_arg "Network.detach: bad node";
  t.handlers.(node) <- None

let drop t ~node =
  t.dropped <- t.dropped + 1;
  if t.chk >= 0 then Check.flit_dropped ~net:t.chk;
  if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_dropped;
  if !Obs.trace_on then
    Ring.instant t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.noc_drop ~id:node ~arg:0

let deliver t ~src ~dst ~start msg =
  match t.handlers.(dst) with
  | None -> drop t ~node:dst
  | Some handler ->
    t.delivered <- t.delivered + 1;
    if t.chk >= 0 then Check.flit_delivered ~net:t.chk;
    if !Obs.metrics_on then begin
      Registry.incr t.obs.Obs.metrics t.obs_delivered;
      Registry.observe t.obs.Obs.metrics t.obs_latency (Engine.now t.engine - start)
    end;
    handler ~src msg

let serialization_cycles t bytes_ = (bytes_ + t.config.bytes_per_cycle - 1) / t.config.bytes_per_cycle

let release t slot =
  Array.unsafe_set t.fl_msg slot None;
  Array.unsafe_set t.fl_free_next slot t.fl_free_head;
  t.fl_free_head <- slot

(* Drop the flight in [slot] at router [cur] and retire its slot. In
   adaptive mode the drop must be justified by a partition: the checker
   fires when [cur] is alive and the tables still reach the destination. *)
let drop_flight t slot ~cur =
  if t.chk >= 0 then begin
    (match t.adaptive with
    | Some ad ->
      let dst = Array.unsafe_get t.fl_dst slot in
      let reachable = Mesh.router_up t.mesh cur && Adaptive.reachable ad ~src:cur ~dst in
      Check.noc_reachable_drop ~net:t.chk ~node:cur ~dst ~reachable
    | None -> ());
    Check.noc_flight_done ~net:t.chk ~flight:(Array.unsafe_get t.fl_flight slot)
  end;
  drop t ~node:cur;
  release t slot

(* Inject the flight into the link out of its current router; drops here
   mirror the old per-hop [router_up src && link_up] check. *)
let rec hop t slot =
  let cur = Array.unsafe_get t.fl_cur slot in
  let dst = Array.unsafe_get t.fl_dst slot in
  match t.adaptive with
  | Some ad ->
    let next = Adaptive.next_hop ad ~cur ~dst in
    let next =
      if !test_detour_loop && Array.unsafe_get t.fl_prev slot >= 0 then
        Array.unsafe_get t.fl_prev slot
      else next
    in
    if next < 0 || !test_blackhole then drop_flight t slot ~cur
    else begin
      if !Obs.metrics_on && next <> Mesh.next_hop t.mesh ~cur ~dst ~x_first:true then
        Registry.incr t.obs.Obs.metrics t.obs_reroutes;
      transmit t slot ~cur ~next
    end
  | None ->
    let x_first = Bytes.unsafe_get t.fl_xfirst slot <> '\000' in
    transmit t slot ~cur ~next:(Mesh.next_hop t.mesh ~cur ~dst ~x_first)

(* Cross the [cur -> next] link if it and the local router are up. The
   checker hook fires only on actual traversals, recording the visited
   trail for loop detection and flagging crossings of failed
   components (reachable only via the [test_skip_up_check] knob). *)
and transmit t slot ~cur ~next =
  let lid = Mesh.link_id t.mesh ~src:cur ~dst:next in
  let cur_up = Mesh.router_up t.mesh cur in
  let link_up = Mesh.link_up_id t.mesh lid in
  if (cur_up && link_up) || !test_skip_up_check then begin
    if t.chk >= 0 then
      Check.noc_hop ~net:t.chk
        ~flight:(Array.unsafe_get t.fl_flight slot)
        ~epoch:(Mesh.epoch t.mesh) ~cur ~next ~cur_up ~link_up;
    let now = Engine.now t.engine in
    let free_at = Array.unsafe_get t.busy_until lid in
    let begin_tx = if now > free_at then now else free_at in
    let done_at =
      begin_tx + t.config.router_latency + serialization_cycles t (Array.unsafe_get t.fl_bytes slot)
    in
    Array.unsafe_set t.busy_until lid done_at;
    let load = Array.unsafe_get t.load lid + 1 in
    Array.unsafe_set t.load lid load;
    if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics (t.obs_link_base + lid);
    if !Obs.trace_on then
      Ring.sample t.obs.Obs.ring ~time:(Engine.now t.engine) ~cat:Obs.Cat.noc_link ~id:lid
        ~arg:load;
    Array.unsafe_set t.fl_prev slot cur;
    Array.unsafe_set t.fl_cur slot next;
    Array.unsafe_set t.fl_hops slot (Array.unsafe_get t.fl_hops slot + 1);
    ignore (Engine.at t.engine ~time:done_at (Array.unsafe_get t.fl_advance slot))
  end
  else drop_flight t slot ~cur

(* Arrival at the flight's current router. Re-check it at arrival time:
   it may have died while the message was on the wire. Multicast
   branches carry their instance slot in [fl_mc] and take their own
   arrival path. *)
and advance t slot =
  let mc = Array.unsafe_get t.fl_mc slot in
  if mc >= 0 then advance_mcast t slot mc
  else
    let cur = Array.unsafe_get t.fl_cur slot in
    if Mesh.router_up t.mesh cur then
      if cur = Array.unsafe_get t.fl_dst slot then begin
        let src = Array.unsafe_get t.fl_src slot in
        let start = Array.unsafe_get t.fl_start slot in
        let msg = match Array.unsafe_get t.fl_msg slot with Some m -> m | None -> assert false in
        if !Obs.metrics_on then begin
          (* Path stretch: hops taken beyond the Manhattan distance. *)
          let w = Mesh.width t.mesh in
          let dx = abs ((cur mod w) - (src mod w)) and dy = abs ((cur / w) - (src / w)) in
          Registry.observe t.obs.Obs.metrics t.obs_stretch
            (Array.unsafe_get t.fl_hops slot - dx - dy)
        end;
        if t.chk >= 0 then Check.noc_flight_done ~net:t.chk ~flight:(Array.unsafe_get t.fl_flight slot);
        release t slot;
        deliver t ~src ~dst:cur ~start msg
      end
      else hop t slot
    else drop_flight t slot ~cur

and grow_flights t =
  let cap = Array.length t.fl_cur in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let extend a = Array.append a (Array.make (ncap - cap) 0) in
  t.fl_cur <- extend t.fl_cur;
  t.fl_prev <- extend t.fl_prev;
  t.fl_src <- extend t.fl_src;
  t.fl_dst <- extend t.fl_dst;
  t.fl_start <- extend t.fl_start;
  t.fl_bytes <- extend t.fl_bytes;
  t.fl_hops <- extend t.fl_hops;
  t.fl_flight <- extend t.fl_flight;
  t.fl_mc <- Array.append t.fl_mc (Array.make (ncap - cap) (-1));
  let nxfirst = Bytes.make ncap '\000' in
  Bytes.blit t.fl_xfirst 0 nxfirst 0 cap;
  t.fl_xfirst <- nxfirst;
  let nmsg = Array.make ncap None in
  Array.blit t.fl_msg 0 nmsg 0 cap;
  t.fl_msg <- nmsg;
  let nadv = Array.make ncap (fun () -> ()) in
  Array.blit t.fl_advance 0 nadv 0 cap;
  for i = cap to ncap - 1 do
    nadv.(i) <- (fun () -> advance t i)
  done;
  t.fl_advance <- nadv;
  let nfree = Array.make ncap (-1) in
  Array.blit t.fl_free_next 0 nfree 0 cap;
  for i = ncap - 1 downto cap do
    nfree.(i) <- t.fl_free_head;
    t.fl_free_head <- i
  done;
  t.fl_free_next <- nfree

and alloc_flight t =
  if t.fl_free_head < 0 then grow_flights t;
  let slot = t.fl_free_head in
  t.fl_free_head <- Array.unsafe_get t.fl_free_next slot;
  slot

(* --- multicast branch machinery --- *)

(* A multicast branch arriving at a dead router loses the whole subtree
   behind it; the router died after the trees were built, so the epoch
   moved (or is about to) and the strict delivery-set check stands down. *)
and advance_mcast t slot mc =
  let cur = Array.unsafe_get t.fl_cur slot in
  if Mesh.router_up t.mesh cur then mcast_arrive t slot mc ~cur
  else begin
    drop_lost_subtree t mc ~at:cur ~site:cur;
    mcast_branch_done t slot mc
  end

(* Serve the deliver mark, then fork into every marked out-direction:
   the first live child reuses this branch's slot (path continuation),
   each further child claims a fresh slot and a fresh checker flight id
   — tree paths are disjoint, so per-branch loop detection still holds. *)
and mcast_arrive t slot mc ~cur =
  let fwd = Array.unsafe_get t.mc_fwd mc in
  let b = Char.code (Bytes.unsafe_get fwd cur) in
  if b land 16 <> 0 then begin
    deliver_mcast t mc ~node:cur;
    if !test_mcast_dup_deliver then deliver_mcast t mc ~node:cur
  end;
  let dirs = b land 15 in
  let dirs =
    if !test_mcast_skip_branch && dirs <> 0 then
      (* Mutation: silently prune the highest marked direction. *)
      let hi =
        if dirs land 8 <> 0 then 8 else if dirs land 4 <> 0 then 4 else if dirs land 2 <> 0 then 2 else 1
      in
      dirs land lnot hi
    else dirs
  in
  let hops = Array.unsafe_get t.fl_hops slot in
  let w = Mesh.width t.mesh in
  let reused = ref false in
  for dir = 0 to 3 do
    if dirs land (1 lsl dir) <> 0 then begin
      let child = match dir with 0 -> cur - w | 1 -> cur - 1 | 2 -> cur + 1 | _ -> cur + w in
      let lid = (cur * 4) + dir in
      let link_up = Mesh.link_up_id t.mesh lid in
      if link_up || !test_skip_up_check then begin
        let s =
          if !reused then begin
            let s = alloc_flight t in
            Array.unsafe_set t.fl_flight s t.next_flight;
            t.next_flight <- t.next_flight + 1;
            Array.unsafe_set t.mc_live mc (Array.unsafe_get t.mc_live mc + 1);
            if t.mcast_obs then Registry.incr t.obs.Obs.metrics t.obs_mcast_forks;
            s
          end
          else begin
            reused := true;
            slot
          end
        in
        if t.chk >= 0 then
          Check.noc_hop ~net:t.chk
            ~flight:(Array.unsafe_get t.fl_flight s)
            ~epoch:(Mesh.epoch t.mesh) ~cur ~next:child
            ~cur_up:(Mesh.router_up t.mesh cur) ~link_up;
        let now = Engine.now t.engine in
        let free_at = Array.unsafe_get t.busy_until lid in
        let begin_tx = if now > free_at then now else free_at in
        let done_at =
          begin_tx + t.config.router_latency
          + serialization_cycles t (Array.unsafe_get t.mc_bytes mc)
        in
        Array.unsafe_set t.busy_until lid done_at;
        let load = Array.unsafe_get t.load lid + 1 in
        Array.unsafe_set t.load lid load;
        if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics (t.obs_link_base + lid);
        if !Obs.trace_on then
          Ring.sample t.obs.Obs.ring ~time:now ~cat:Obs.Cat.noc_link ~id:lid ~arg:load;
        Array.unsafe_set t.fl_cur s child;
        Array.unsafe_set t.fl_prev s cur;
        Array.unsafe_set t.fl_hops s (hops + 1);
        Array.unsafe_set t.fl_mc s mc;
        ignore (Engine.at t.engine ~time:done_at (Array.unsafe_get t.fl_advance s))
      end
      else drop_lost_subtree t mc ~at:child ~site:cur
    end
  done;
  if not !reused then mcast_branch_done t slot mc

and deliver_mcast t mc ~node =
  if t.chk >= 0 then Check.mcast_deliver ~net:t.chk ~mcast:(Array.unsafe_get t.mc_id mc) ~node;
  if t.mcast_obs then Registry.incr t.obs.Obs.metrics t.obs_mcast_deliveries;
  let msg = match Array.unsafe_get t.mc_msg mc with Some m -> m | None -> assert false in
  deliver t
    ~src:(Array.unsafe_get t.mc_src mc)
    ~dst:node
    ~start:(Array.unsafe_get t.mc_start mc)
    msg

(* Each deliver mark at or below [at] is one logical message lost to a
   mid-flight fault; [site] is the router blamed for the drops. The
   marked subgraph is a tree, so the DFS visits each node once and the
   scratch stack is bounded by the node count. *)
and drop_lost_subtree t mc ~at ~site =
  let fwd = Array.unsafe_get t.mc_fwd mc in
  let w = Mesh.width t.mesh in
  let stack = t.mc_stack in
  let sp = ref 1 in
  Array.unsafe_set stack 0 at;
  while !sp > 0 do
    decr sp;
    let v = Array.unsafe_get stack !sp in
    let b = Char.code (Bytes.unsafe_get fwd v) in
    if b land 16 <> 0 then drop t ~node:site;
    if b land 1 <> 0 then begin
      Array.unsafe_set stack !sp (v - w);
      incr sp
    end;
    if b land 2 <> 0 then begin
      Array.unsafe_set stack !sp (v - 1);
      incr sp
    end;
    if b land 4 <> 0 then begin
      Array.unsafe_set stack !sp (v + 1);
      incr sp
    end;
    if b land 8 <> 0 then begin
      Array.unsafe_set stack !sp (v + w);
      incr sp
    end
  done

and mcast_branch_done t slot mc =
  if t.chk >= 0 then Check.noc_flight_done ~net:t.chk ~flight:(Array.unsafe_get t.fl_flight slot);
  release t slot;
  mcast_ref_drop t mc

and mcast_ref_drop t mc =
  let live = Array.unsafe_get t.mc_live mc - 1 in
  Array.unsafe_set t.mc_live mc live;
  if live = 0 then begin
    if t.chk >= 0 then
      Check.mcast_done ~net:t.chk
        ~mcast:(Array.unsafe_get t.mc_id mc)
        ~strict:(Mesh.epoch t.mesh = Array.unsafe_get t.mc_epoch mc);
    Bytes.fill (Array.unsafe_get t.mc_fwd mc) 0 (Array.length t.handlers) '\000';
    Array.unsafe_set t.mc_msg mc None;
    Array.unsafe_set t.mc_free_next mc t.mc_free_head;
    t.mc_free_head <- mc
  end

let send t ~src ~dst ~bytes_ msg =
  if bytes_ <= 0 then invalid_arg "Network.send: bytes must be positive";
  t.sent <- t.sent + 1;
  if t.chk >= 0 then Check.flit_injected ~net:t.chk;
  t.bytes_sent <- t.bytes_sent + bytes_;
  let start = Engine.now t.engine in
  if src = dst then
    ignore
      (Engine.schedule t.engine ~delay:t.config.local_latency (fun () ->
           deliver t ~src ~dst ~start msg))
  else begin
    Mesh.check_id t.mesh src;
    Mesh.check_id t.mesh dst;
    let x_first =
      match t.config.routing with
      | Xy | Adaptive -> true
      | Xy_with_yx_fallback -> Mesh.xy_path_usable t.mesh ~src ~dst
    in
    (* The sender's own router must be alive to inject at all. *)
    if not (Mesh.router_up t.mesh src) then drop t ~node:src
    else begin
      let slot = alloc_flight t in
      Array.unsafe_set t.fl_cur slot src;
      Array.unsafe_set t.fl_prev slot (-1);
      Array.unsafe_set t.fl_src slot src;
      Array.unsafe_set t.fl_dst slot dst;
      Array.unsafe_set t.fl_start slot start;
      Array.unsafe_set t.fl_bytes slot bytes_;
      Array.unsafe_set t.fl_hops slot 0;
      Array.unsafe_set t.fl_flight slot t.next_flight;
      t.next_flight <- t.next_flight + 1;
      Array.unsafe_set t.fl_mc slot (-1);
      Bytes.unsafe_set t.fl_xfirst slot (if x_first then '\001' else '\000');
      Array.unsafe_set t.fl_msg slot (Some msg);
      hop t slot
    end
  end

(* --- multicast instance pool --- *)

let grow_mcasts t =
  let cap = Array.length t.mc_live in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let n = Array.length t.handlers in
  let extend a = Array.append a (Array.make (ncap - cap) 0) in
  t.mc_live <- extend t.mc_live;
  t.mc_src <- extend t.mc_src;
  t.mc_start <- extend t.mc_start;
  t.mc_bytes <- extend t.mc_bytes;
  t.mc_id <- extend t.mc_id;
  t.mc_epoch <- extend t.mc_epoch;
  let nfwd = Array.make ncap Bytes.empty in
  Array.blit t.mc_fwd 0 nfwd 0 cap;
  for i = cap to ncap - 1 do
    nfwd.(i) <- Bytes.make n '\000'
  done;
  t.mc_fwd <- nfwd;
  let nmsg = Array.make ncap None in
  Array.blit t.mc_msg 0 nmsg 0 cap;
  t.mc_msg <- nmsg;
  let nfree = Array.make ncap (-1) in
  Array.blit t.mc_free_next 0 nfree 0 cap;
  for i = ncap - 1 downto cap do
    nfree.(i) <- t.mc_free_head;
    t.mc_free_head <- i
  done;
  t.mc_free_next <- nfree

let alloc_mcast t =
  if t.mc_free_head < 0 then grow_mcasts t;
  let slot = t.mc_free_head in
  t.mc_free_head <- Array.unsafe_get t.mc_free_next slot;
  slot

(* Climb from a marked destination toward the root, setting the forward
   bit on each tree edge; stop at the first already-set bit — the path
   above it is marked. Amortized O(tree edges) over all destinations. *)
let rec mark_path fwd parent ~w v =
  let p = Array.unsafe_get parent v in
  if p <> v then begin
    let dir = if v = p - w then 0 else if v = p - 1 then 1 else if v = p + 1 then 2 else 3 in
    let b = Char.code (Bytes.unsafe_get fwd p) in
    if b land (1 lsl dir) = 0 then begin
      Bytes.unsafe_set fwd p (Char.unsafe_chr (b lor (1 lsl dir)));
      mark_path fwd parent ~w p
    end
  end

let multicast t ~src ~dsts ?n ~bytes_ msg =
  if bytes_ <= 0 then invalid_arg "Network.multicast: bytes must be positive";
  let mcast =
    match t.mcast with
    | Some m -> m
    | None -> invalid_arg "Network.multicast: multicast mode is off"
  in
  let k = match n with Some k -> k | None -> Array.length dsts in
  if k < 0 || k > Array.length dsts then invalid_arg "Network.multicast: bad destination count";
  Mesh.check_id t.mesh src;
  for i = 0 to k - 1 do
    Mesh.check_id t.mesh dsts.(i)
  done;
  (* Logical accounting matches a unicast fan-out — k messages injected,
     k * bytes_ logical payload — so protocol-level message and byte
     stats stay comparable across modes; the physical saving shows up in
     the event count, link occupancy and the noc.mcast.* counters. *)
  t.sent <- t.sent + k;
  t.bytes_sent <- t.bytes_sent + (bytes_ * k);
  if t.chk >= 0 then
    for _ = 1 to k do
      Check.flit_injected ~net:t.chk
    done;
  if t.mcast_obs then begin
    Registry.incr t.obs.Obs.metrics t.obs_mcast_sends;
    Registry.observe t.obs.Obs.metrics t.obs_mcast_fanout k
  end;
  if k > 0 then
    if not (Mesh.router_up t.mesh src) then
      (* The sender's own router must be alive to inject at all. *)
      for _ = 1 to k do
        drop t ~node:src
      done
    else begin
      let parent = Mcast.tree mcast ~root:src in
      let mc = alloc_mcast t in
      let fwd = Array.unsafe_get t.mc_fwd mc in
      let w = Mesh.width t.mesh in
      let id = t.next_flight in
      t.next_flight <- t.next_flight + 1;
      Array.unsafe_set t.mc_src mc src;
      Array.unsafe_set t.mc_start mc (Engine.now t.engine);
      Array.unsafe_set t.mc_bytes mc bytes_;
      Array.unsafe_set t.mc_id mc id;
      Array.unsafe_set t.mc_epoch mc (Mesh.epoch t.mesh);
      Array.unsafe_set t.mc_msg mc (Some msg);
      if t.chk >= 0 then Check.mcast_begin ~net:t.chk ~mcast:id;
      for i = 0 to k - 1 do
        let dst = Array.unsafe_get dsts i in
        if Array.unsafe_get parent dst < 0 then
          (* The trees cannot reach it: the per-destination unicast
             reference would drop too (partition). *)
          drop t ~node:src
        else begin
          let b = Char.code (Bytes.unsafe_get fwd dst) in
          if b land 16 = 0 then begin
            Bytes.unsafe_set fwd dst (Char.unsafe_chr (b lor 16));
            mark_path fwd parent ~w dst
          end;
          if t.chk >= 0 then Check.mcast_expect ~net:t.chk ~mcast:id ~node:dst
        end
      done;
      Array.unsafe_set t.mc_live mc 1;
      (* The root's own deliver mark is served as a loopback, matching
         unicast [src = dst] semantics; the scheduled closure is the one
         allocation a self-including multicast costs. *)
      let root_b = Char.code (Bytes.unsafe_get fwd src) in
      if root_b land 16 <> 0 then begin
        Bytes.unsafe_set fwd src (Char.unsafe_chr (root_b land lnot 16));
        Array.unsafe_set t.mc_live mc 2;
        ignore
          (Engine.schedule t.engine ~delay:t.config.local_latency (fun () ->
               deliver_mcast t mc ~node:src;
               if !test_mcast_dup_deliver then deliver_mcast t mc ~node:src;
               mcast_ref_drop t mc))
      end;
      let slot = alloc_flight t in
      Array.unsafe_set t.fl_cur slot src;
      Array.unsafe_set t.fl_prev slot (-1);
      Array.unsafe_set t.fl_hops slot 0;
      Array.unsafe_set t.fl_mc slot mc;
      Array.unsafe_set t.fl_flight slot t.next_flight;
      t.next_flight <- t.next_flight + 1;
      mcast_arrive t slot mc ~cur:src
    end

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let bytes_sent t = t.bytes_sent

let reachable t ~src ~dst =
  match t.adaptive with
  | Some ad -> Adaptive.reachable ad ~src ~dst
  | None -> invalid_arg "Network.reachable: routing is not Adaptive"

let route_epoch t =
  match t.adaptive with
  | Some ad -> Adaptive.epoch ad
  | None -> invalid_arg "Network.route_epoch: routing is not Adaptive"

let recomputes t = match t.adaptive with Some ad -> Adaptive.recomputes ad | None -> 0
let recompute_visits t = match t.adaptive with Some ad -> Adaptive.visits ad | None -> 0

let mcast_tree_builds t = match t.mcast with Some m -> Mcast.builds m | None -> 0
let mcast_tree_visits t = match t.mcast with Some m -> Mcast.visits m | None -> 0

let hop_load t =
  let acc = ref [] in
  for lid = Array.length t.load - 1 downto 0 do
    let n = Array.unsafe_get t.load lid in
    if n > 0 then acc := (Mesh.link_of_id t.mesh lid, n) :: !acc
  done;
  !acc
