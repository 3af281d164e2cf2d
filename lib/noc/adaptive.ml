(* Epoch-stamped per-router next-hop tables over the surviving topology.

   For every destination [dst] a reverse BFS from [dst] over the up
   routers and up directed links labels each router [u] with its parent
   [v] on a shortest surviving path u -> dst; [table.(u*n + dst) = v],
   and [rank.(u*n + dst)] is [u]'s discovery index in that BFS (0 for
   [dst]). Neighbours are explored in the fixed direction order north,
   west, east, south, so ties break deterministically and the tables are
   a pure function of the fault state (hence identical across campaign
   worker counts). The BFS of one destination reads and writes only its
   own column, and it allocates nothing.

   In that BFS, [u]'s parent is the earliest-dequeued (lowest-rank) tree
   router [v] with a live link u -> v. That makes the destinations a
   single flip changes exactly decidable from the old tables, by one O(n)
   scan of the flipped component's rows:
   - link u -> v down: the [dst] with [table(u, dst) = v];
   - link u -> v up, u and v up: the [dst] with [table(v, dst) >= 0] and
     either [table(u, dst) < 0] or [rank(v, dst) < rank(p, dst)] for u's
     current parent [p] (v is dequeued before p, so it takes over);
   - router r down: the [dst] with [table(r, dst) >= 0];
   - router r up: [dst = r], and every [dst] with some live link r -> v
     and [table(v, dst) >= 0].
   Every other column is bit-identical to what a fresh BFS would give, so
   only the listed destinations rerun.

   Freshness is tracked with [Mesh.epoch]: a table computed at epoch e
   stays valid until the mesh reports a fault-state flip. A [refresh]
   that finds exactly one flip since its last one reads it from
   [Mesh.last_flip] and reruns only the affected destinations; the first
   compute and any refresh that missed several flips rerun all n. A full
   recompute is O(n * (n + links)). [visits] counts the routers the BFS
   runs dequeue (the destination plus each router it reaches), the cost
   model surfaced by the obs layer; the per-flip scan is not counted.

   Deadlock/livelock argument (DESIGN.md section 9): the simulated links
   are FIFO queues of unbounded depth, so there is no buffer-cycle
   deadlock to avoid; livelock cannot occur because within one epoch
   every hop strictly decreases the BFS distance to the destination, and
   a run contains finitely many epochs. *)

type t = {
  mesh : Mesh.t;
  n : int;
  width : int;
  table : int array;  (* cur*n + dst -> next hop toward dst, -1 = unreachable *)
  rank : int array;  (* cur*n + dst -> discovery index in dst's BFS; valid iff table >= 0 *)
  pairs : int array;  (* dst -> routers other than dst with a route to it *)
  queue : int array;  (* BFS scratch *)
  mutable epoch : int;  (* mesh epoch the table reflects; -1 = never computed *)
  mutable recomputes : int;
  mutable visits : int;  (* cumulative BFS node visits (recompute cost) *)
  mutable reachable_pairs : int;  (* ordered src<>dst pairs with a route *)
}

let create mesh =
  let n = Mesh.n_nodes mesh in
  {
    mesh;
    n;
    width = Mesh.width mesh;
    table = Array.make (n * n) (-1);
    rank = Array.make (n * n) 0;
    pairs = Array.make n 0;
    queue = Array.make n 0;
    epoch = -1;
    recomputes = 0;
    visits = 0;
    reachable_pairs = 0;
  }

(* Discover [u] in [dst]'s BFS with parent [v] when [u] is up, its link
   [lid] (u -> v) is up and [u] is not yet labelled. Returns the new
   queue tail. *)
let consider t dst v u lid tail =
  let i = (u * t.n) + dst in
  if t.table.(i) < 0 && Mesh.router_up t.mesh u && Mesh.link_up_id t.mesh lid then begin
    t.table.(i) <- v;
    t.rank.(i) <- tail;
    t.queue.(tail) <- u;
    tail + 1
  end
  else tail

(* Recompute column [dst]. Predecessors u of a dequeued v, in fixed
   order: u above (its south link), u left (east), u right (west), u
   below (north). *)
let bfs t dst =
  let n = t.n and w = t.width in
  for u = 0 to n - 1 do
    t.table.((u * n) + dst) <- -1
  done;
  t.reachable_pairs <- t.reachable_pairs - t.pairs.(dst);
  if Mesh.router_up t.mesh dst then begin
    t.table.((dst * n) + dst) <- dst;
    t.rank.((dst * n) + dst) <- 0;
    t.queue.(0) <- dst;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = t.queue.(!head) in
      incr head;
      if v >= w then tail := consider t dst v (v - w) (((v - w) * 4) + 3) !tail;
      if v mod w > 0 then tail := consider t dst v (v - 1) (((v - 1) * 4) + 2) !tail;
      if v mod w < w - 1 then tail := consider t dst v (v + 1) (((v + 1) * 4) + 1) !tail;
      if v < n - w then tail := consider t dst v (v + w) ((v + w) * 4) !tail
    done;
    t.visits <- t.visits + !tail;
    t.pairs.(dst) <- !tail - 1
  end
  else t.pairs.(dst) <- 0;
  t.reachable_pairs <- t.reachable_pairs + t.pairs.(dst)

(* Whether [r]'s live link in direction [dir] leads to [v] inside
   [dst]'s BFS tree. *)
let feeds t dst r v dir =
  Mesh.link_up_id t.mesh ((r * 4) + dir) && t.table.((v * t.n) + dst) >= 0

(* Rerun the destinations the single flip [flip] (a [Mesh.last_flip])
   changes; the header lists the rules. *)
let update t flip =
  let n = t.n and w = t.width and mesh = t.mesh in
  let table = t.table and rank = t.rank in
  if flip >= 0 then begin
    let u = flip / 4 and v = Mesh.link_dst mesh flip in
    if not (Mesh.link_up_id mesh flip) then begin
      for dst = 0 to n - 1 do
        if table.((u * n) + dst) = v then bfs t dst
      done
    end
    else if Mesh.router_up mesh u && Mesh.router_up mesh v then
      for dst = 0 to n - 1 do
        let p = table.((u * n) + dst) in
        if
          table.((v * n) + dst) >= 0
          && (p < 0 || rank.((v * n) + dst) < rank.((p * n) + dst))
        then bfs t dst
      done
  end
  else begin
    let r = -1 - flip in
    if not (Mesh.router_up mesh r) then begin
      for dst = 0 to n - 1 do
        if table.((r * n) + dst) >= 0 then bfs t dst
      done
    end
    else
      for dst = 0 to n - 1 do
        if
          dst = r
          || (r >= w && feeds t dst r (r - w) 0)
          || (r mod w > 0 && feeds t dst r (r - 1) 1)
          || (r mod w < w - 1 && feeds t dst r (r + 1) 2)
          || (r < n - w && feeds t dst r (r + w) 3)
        then bfs t dst
      done
  end

let refresh t =
  let e = Mesh.epoch t.mesh in
  if t.epoch = e then false
  else begin
    if t.epoch >= 0 && e = t.epoch + 1 then update t (Mesh.last_flip t.mesh)
    else
      for dst = 0 to t.n - 1 do
        bfs t dst
      done;
    t.recomputes <- t.recomputes + 1;
    t.epoch <- e;
    true
  end

let next_hop t ~cur ~dst =
  ignore (refresh t);
  Array.unsafe_get t.table ((cur * t.n) + dst)

let reachable t ~src ~dst =
  ignore (refresh t);
  Array.unsafe_get t.table ((src * t.n) + dst) >= 0

let epoch t = t.epoch
let recomputes t = t.recomputes
let visits t = t.visits

let reachable_pairs t =
  ignore (refresh t);
  t.reachable_pairs

let total_pairs t = t.n * (t.n - 1)
