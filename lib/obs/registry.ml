(* All metric state lives in [cells], one flat int array: a counter or
   gauge owns one cell, a histogram owns (buckets + 1) cells for its
   counts (the extra one is the overflow bucket) followed by one cell for
   the running sum. Hot-path updates are therefore single stores into an
   int array — no boxing, no closures, no allocation. *)

type kind = Counter | Gauge | Histogram of int array

type histogram = { h_base : int; bounds : int array }

type metric = { name : string; kind : kind; base : int }

type t = {
  mutable cells : int array;
  mutable used : int;
  mutable metrics : metric list;  (* reversed registration order *)
  index : (string, metric) Hashtbl.t;
}

let create () = { cells = [||]; used = 0; metrics = []; index = Hashtbl.create 16 }

let cells_of = function Counter | Gauge -> 1 | Histogram bounds -> Array.length bounds + 2

let ensure t n =
  let cap = Array.length t.cells in
  if t.used + n > cap then begin
    let ncap = max (t.used + n) (max 64 (2 * cap)) in
    let ncells = Array.make ncap 0 in
    Array.blit t.cells 0 ncells 0 t.used;
    t.cells <- ncells
  end

let register t name kind =
  match Hashtbl.find_opt t.index name with
  | Some m ->
    if m.kind <> kind then
      invalid_arg (Printf.sprintf "Registry: %S re-registered with a different kind" name);
    m.base
  | None ->
    let n = cells_of kind in
    ensure t n;
    let m = { name; kind; base = t.used } in
    t.used <- t.used + n;
    t.metrics <- m :: t.metrics;
    Hashtbl.replace t.index name m;
    m.base

let counter t name = register t name Counter

let gauge t name = register t name Gauge

let counter_block t ~n ~name =
  if n <= 0 then invalid_arg "Registry.counter_block: n must be positive";
  match Hashtbl.find_opt t.index (name 0) with
  | Some m -> m.base
  | None ->
    let base = register t (name 0) Counter in
    for i = 1 to n - 1 do
      ignore (register t (name i) Counter)
    done;
    base

let histogram t name ~bounds =
  if Array.length bounds = 0 then invalid_arg "Registry.histogram: empty bounds";
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then invalid_arg "Registry.histogram: bounds must be strictly increasing")
    bounds;
  let bounds = Array.copy bounds in
  { h_base = register t name (Histogram bounds); bounds }

let null_histogram = { h_base = 0; bounds = [||] }

let incr t id = t.cells.(id) <- t.cells.(id) + 1

let add t id n = t.cells.(id) <- t.cells.(id) + n

let set t id v = t.cells.(id) <- v

let get t id = t.cells.(id)

let observe t h v =
  let nb = Array.length h.bounds in
  let rec bucket i = if i >= nb || v <= Array.unsafe_get h.bounds i then i else bucket (i + 1) in
  let b = bucket 0 in
  t.cells.(h.h_base + b) <- t.cells.(h.h_base + b) + 1;
  t.cells.(h.h_base + nb + 1) <- t.cells.(h.h_base + nb + 1) + v

let hist_bucket t h i = t.cells.(h.h_base + i)

let hist_count t h =
  let acc = ref 0 in
  for i = 0 to Array.length h.bounds do
    acc := !acc + t.cells.(h.h_base + i)
  done;
  !acc

let hist_sum t h = t.cells.(h.h_base + Array.length h.bounds + 1)

let n_metrics t = List.length t.metrics

let reset t = Array.fill t.cells 0 t.used 0

let in_order t = List.rev t.metrics

let hist_of m bounds = { h_base = m.base; bounds }

let iter_scalars t f =
  List.iter
    (fun m ->
      match m.kind with
      | Counter -> f m.name ~gauge:false t.cells.(m.base)
      | Gauge -> f m.name ~gauge:true t.cells.(m.base)
      | Histogram bounds ->
        let h = hist_of m bounds in
        f (m.name ^ ".count") ~gauge:false (hist_count t h);
        f (m.name ^ ".sum") ~gauge:false (hist_sum t h))
    (in_order t)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"resoc-obs/1\",\"metrics\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      Json.add_string buf m.name;
      (match m.kind with
      | Counter -> Printf.bprintf buf ",\"kind\":\"counter\",\"value\":%d}" t.cells.(m.base)
      | Gauge -> Printf.bprintf buf ",\"kind\":\"gauge\",\"value\":%d}" t.cells.(m.base)
      | Histogram bounds ->
        let h = hist_of m bounds in
        Buffer.add_string buf ",\"kind\":\"histogram\",\"bounds\":[";
        Array.iteri
          (fun j b ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int b))
          bounds;
        Buffer.add_string buf "],\"buckets\":[";
        for j = 0 to Array.length bounds do
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (hist_bucket t h j))
        done;
        Printf.bprintf buf "],\"count\":%d,\"sum\":%d}" (hist_count t h) (hist_sum t h)))
    (in_order t);
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,kind,field,value\n";
  let row name kind field value =
    Printf.bprintf buf "%s,%s,%s,%d\n" (csv_quote name) kind field value
  in
  List.iter
    (fun m ->
      match m.kind with
      | Counter -> row m.name "counter" "value" t.cells.(m.base)
      | Gauge -> row m.name "gauge" "value" t.cells.(m.base)
      | Histogram bounds ->
        let h = hist_of m bounds in
        row m.name "histogram" "count" (hist_count t h);
        row m.name "histogram" "sum" (hist_sum t h);
        Array.iteri (fun j b -> row m.name "histogram" (Printf.sprintf "le_%d" b) (hist_bucket t h j)) bounds;
        row m.name "histogram" "le_inf" (hist_bucket t h (Array.length bounds)))
    (in_order t);
  Buffer.contents buf
