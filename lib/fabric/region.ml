type t = { x : int; y : int; w : int; h : int }

let make ~x ~y ~w ~h =
  if x < 0 || y < 0 then invalid_arg "Region.make: negative origin";
  if w <= 0 || h <= 0 then invalid_arg "Region.make: non-positive dimensions";
  { x; y; w; h }

let area t = t.w * t.h

let contains t ~x ~y = x >= t.x && x < t.x + t.w && y >= t.y && y < t.y + t.h

let overlaps a b =
  a.x < b.x + b.w && b.x < a.x + a.w && a.y < b.y + b.h && b.y < a.y + a.h

let frames t =
  let acc = ref [] in
  for y = t.y + t.h - 1 downto t.y do
    for x = t.x + t.w - 1 downto t.x do
      acc := (x, y) :: !acc
    done
  done;
  !acc

let fits t ~grid_w ~grid_h = t.x + t.w <= grid_w && t.y + t.h <= grid_h

let with_origin t ~x ~y = make ~x ~y ~w:t.w ~h:t.h

let equal a b = a.x = b.x && a.y = b.y && a.w = b.w && a.h = b.h
