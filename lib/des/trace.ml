type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_label = function
  | Debug -> "DEBUG"
  | Info -> "INFO"
  | Warn -> "WARN"
  | Error -> "ERROR"

type entry = { time : int; level : level; component : string; message : string }

type t = {
  capacity : int;
  mutable ring : entry option array;
  mutable next : int;
  mutable total : int;
  min_level : level;
}

let create ?(capacity = 4096) ?(min_level = Info) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; total = 0; min_level }

let enabled t l = level_rank l >= level_rank t.min_level

let emit t ~time level ~component msg =
  if enabled t level then begin
    t.ring.(t.next) <- Some { time; level; component; message = msg () };
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end

let entries t =
  let kept = min t.total t.capacity in
  let start = if t.total <= t.capacity then 0 else t.next in
  let rec collect i acc =
    if i >= kept then List.rev acc
    else
      match t.ring.((start + i) mod t.capacity) with
      | None -> collect (i + 1) acc
      | Some e -> collect (i + 1) (e :: acc)
  in
  collect 0 []

let count t = t.total

let find t p = List.find_opt p (entries t)

let pp_entry ppf e =
  Format.fprintf ppf "[%8d] %-5s %-16s %s" e.time (level_label e.level) e.component e.message

let dump t ppf =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
