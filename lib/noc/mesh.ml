(* Fault state lives in two dense byte maps ('\000' = up): one byte per
   router, one per directed link. Links are identified by
   [src * 4 + dir], with dir 0 = north (id - width), 1 = west (id - 1),
   2 = east (id + 1), 3 = south (id + width). For a fixed src that dir
   order is ascending dst, so scanning ids ascending enumerates links in
   (src, dst) lexicographic order — the same order the old Set-based
   representation produced from [elements]. The hot path (Network) works
   on these ids directly; the record-based link API stays for tests and
   fault-injection code. *)

type link = { src : int; dst : int }

type t = {
  width : int;
  height : int;
  routers : Bytes.t;  (* '\000' = up *)
  links : Bytes.t;  (* n_nodes * 4, '\000' = up *)
  mutable epoch : int;  (* bumped on every actual fault-state flip *)
  mutable last_flip : int;  (* link id, or -1 - router id, of the latest flip *)
  mutable n_failed_links : int;
  mutable n_failed_routers : int;
  mutable subscribers : (unit -> unit) list;  (* called after each flip *)
}

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Mesh.create: dimensions must be positive";
  {
    width;
    height;
    routers = Bytes.make (width * height) '\000';
    links = Bytes.make (width * height * 4) '\000';
    epoch = 0;
    last_flip = 0;
    n_failed_links = 0;
    n_failed_routers = 0;
    subscribers = [];
  }

let epoch t = t.epoch
let last_flip t = t.last_flip
let failed_link_count t = t.n_failed_links
let failed_router_count t = t.n_failed_routers
let on_change t f = t.subscribers <- t.subscribers @ [ f ]

let changed t flip =
  t.last_flip <- flip;
  t.epoch <- t.epoch + 1;
  List.iter (fun f -> f ()) t.subscribers

let width t = t.width
let height t = t.height
let n_nodes t = t.width * t.height

let check_id t id =
  if id < 0 || id >= n_nodes t then invalid_arg "Mesh: tile id out of range"

let coord_of_id t id =
  check_id t id;
  (id mod t.width, id / t.width)

let id_of_coord t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg "Mesh.id_of_coord: coordinate out of range";
  (y * t.width) + x

let manhattan t a b =
  let ax, ay = coord_of_id t a and bx, by = coord_of_id t b in
  abs (ax - bx) + abs (ay - by)

let neighbors t id =
  let x, y = coord_of_id t id in
  let candidates = [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ] in
  List.filter_map
    (fun (nx, ny) ->
      if nx >= 0 && nx < t.width && ny >= 0 && ny < t.height then Some (id_of_coord t ~x:nx ~y:ny)
      else None)
    candidates

(* Direction of the (src, dst) hop, or -1 if the tiles are not adjacent.
   Both ids must already be in range. *)
let dir_of t ~src ~dst =
  let d = dst - src in
  if d = -t.width then 0
  else if d = -1 && src mod t.width > 0 then 1
  else if d = 1 && src mod t.width < t.width - 1 then 2
  else if d = t.width then 3
  else -1

let n_link_ids t = n_nodes t * 4

let link_id t ~src ~dst =
  check_id t src;
  check_id t dst;
  let dir = dir_of t ~src ~dst in
  if dir < 0 then invalid_arg "Mesh: not a link between adjacent tiles";
  (src * 4) + dir

let link_dst t lid =
  let src = lid / 4 in
  match lid land 3 with
  | 0 -> src - t.width
  | 1 -> src - 1
  | 2 -> src + 1
  | _ -> src + t.width

let link_of_id t lid =
  if lid < 0 || lid >= n_link_ids t then invalid_arg "Mesh.link_of_id: bad link id";
  { src = lid / 4; dst = link_dst t lid }

(* One step of dimension-order routing from [cur] toward [dst]; returns
   [cur] on arrival. Equivalent hop-for-hop to walking the list produced
   by [dimension_route]. *)
let next_hop t ~cur ~dst ~x_first =
  let w = t.width in
  let cx = cur mod w and dx = dst mod w in
  if x_first then
    if cx <> dx then (if cx < dx then cur + 1 else cur - 1)
    else if cur < dst then cur + w
    else if cur > dst then cur - w
    else cur
  else if cur / w <> dst / w then (if cur < dst then cur + w else cur - w)
  else if cx < dx then cur + 1
  else if cx > dx then cur - 1
  else cur

let dimension_route t ~src ~dst ~x_first =
  check_id t src;
  check_id t dst;
  let rec go cur acc =
    if cur = dst then List.rev (cur :: acc)
    else go (next_hop t ~cur ~dst ~x_first) (cur :: acc)
  in
  go src []

let xy_route t ~src ~dst = dimension_route t ~src ~dst ~x_first:true

let yx_route t ~src ~dst = dimension_route t ~src ~dst ~x_first:false

let links_of_route route =
  let rec pair = function
    | a :: (b :: _ as rest) -> { src = a; dst = b } :: pair rest
    | [ _ ] | [] -> []
  in
  pair route

(* Fail/repair are no-ops when the component is already in the target
   state, so the O(1) failed counts stay exact and subscribers only hear
   about actual flips. *)

let fail_link t l =
  let lid = link_id t ~src:l.src ~dst:l.dst in
  if Bytes.get t.links lid = '\000' then begin
    Bytes.set t.links lid '\001';
    t.n_failed_links <- t.n_failed_links + 1;
    changed t lid
  end

let repair_link t l =
  let lid = link_id t ~src:l.src ~dst:l.dst in
  if Bytes.get t.links lid <> '\000' then begin
    Bytes.set t.links lid '\000';
    t.n_failed_links <- t.n_failed_links - 1;
    changed t lid
  end

let link_up t l = Bytes.get t.links (link_id t ~src:l.src ~dst:l.dst) = '\000'

let link_up_id t lid = Bytes.unsafe_get t.links lid = '\000'

let fail_router t id =
  check_id t id;
  if Bytes.get t.routers id = '\000' then begin
    Bytes.set t.routers id '\001';
    t.n_failed_routers <- t.n_failed_routers + 1;
    changed t (-1 - id)
  end

let repair_router t id =
  check_id t id;
  if Bytes.get t.routers id <> '\000' then begin
    Bytes.set t.routers id '\000';
    t.n_failed_routers <- t.n_failed_routers - 1;
    changed t (-1 - id)
  end

let router_up t id =
  check_id t id;
  Bytes.unsafe_get t.routers id = '\000'

let route_usable_via t ~route =
  List.for_all (router_up t) route && List.for_all (link_up t) (links_of_route route)

let route_usable t ~src ~dst = route_usable_via t ~route:(xy_route t ~src ~dst)

(* Allocation-free equivalent of [route_usable_via ~route:(xy_route ...)]:
   walks the unique XY path checking each router and link as it goes. *)
let xy_path_usable t ~src ~dst =
  check_id t src;
  check_id t dst;
  let rec go cur =
    if Bytes.unsafe_get t.routers cur <> '\000' then false
    else if cur = dst then true
    else
      let next = next_hop t ~cur ~dst ~x_first:true in
      link_up_id t ((cur * 4) + dir_of t ~src:cur ~dst:next) && go next
  in
  go src

(* Link ids whose destination actually lies on the mesh (border ids point
   off the edge and are never used by any route). *)
let real_link_ids t =
  let acc = ref [] in
  for lid = n_link_ids t - 1 downto 0 do
    let src = lid / 4 in
    let valid =
      match lid land 3 with
      | 0 -> src >= t.width
      | 1 -> src mod t.width > 0
      | 2 -> src mod t.width < t.width - 1
      | _ -> src < t.width * (t.height - 1)
    in
    if valid then acc := lid :: !acc
  done;
  Array.of_list !acc

let failed_links t =
  let acc = ref [] in
  for lid = n_link_ids t - 1 downto 0 do
    if Bytes.get t.links lid <> '\000' then acc := link_of_id t lid :: !acc
  done;
  !acc

let failed_routers t =
  let acc = ref [] in
  for id = n_nodes t - 1 downto 0 do
    if Bytes.get t.routers id <> '\000' then acc := id :: !acc
  done;
  !acc
