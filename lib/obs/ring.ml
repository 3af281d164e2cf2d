(* Record layout: 4 consecutive ints per record in [data] —
   [time; (cat lsl 3) lor phase; id; arg]. The phase fits in 3 bits,
   leaving 60 bits of category space; see DESIGN.md §5. *)

type phase = Span_begin | Span_end | Instant | Sample | Async_begin | Async_end

type t = { data : int array; capacity : int; mutable next : int; mutable total : int }

let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  { data = Array.make (max 1 (4 * capacity)) 0; capacity; next = 0; total = 0 }

let capacity t = t.capacity

let total t = t.total

let length t = min t.total t.capacity

let dropped t = max 0 (t.total - t.capacity)

let phase_code = function
  | Span_begin -> 0
  | Span_end -> 1
  | Instant -> 2
  | Sample -> 3
  | Async_begin -> 4
  | Async_end -> 5

let phase_of_code = function
  | 0 -> Span_begin
  | 1 -> Span_end
  | 2 -> Instant
  | 3 -> Sample
  | 4 -> Async_begin
  | _ -> Async_end

let record t ~time ~cat ~phase ~id ~arg =
  if t.capacity > 0 then begin
    let off = 4 * t.next in
    Array.unsafe_set t.data off time;
    Array.unsafe_set t.data (off + 1) ((cat lsl 3) lor phase_code phase);
    Array.unsafe_set t.data (off + 2) id;
    Array.unsafe_set t.data (off + 3) arg;
    let n = t.next + 1 in
    t.next <- (if n = t.capacity then 0 else n);
    t.total <- t.total + 1
  end

let span_begin t ~time ~cat ~id ~arg = record t ~time ~cat ~phase:Span_begin ~id ~arg

let span_end t ~time ~cat ~id ~arg = record t ~time ~cat ~phase:Span_end ~id ~arg

let instant t ~time ~cat ~id ~arg = record t ~time ~cat ~phase:Instant ~id ~arg

let sample t ~time ~cat ~id ~arg = record t ~time ~cat ~phase:Sample ~id ~arg

let async_begin t ~time ~cat ~id ~arg = record t ~time ~cat ~phase:Async_begin ~id ~arg

let async_end t ~time ~cat ~id ~arg = record t ~time ~cat ~phase:Async_end ~id ~arg

let iter t f =
  let kept = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  for i = 0 to kept - 1 do
    let idx = start + i in
    let idx = if idx >= t.capacity then idx - t.capacity else idx in
    let off = 4 * idx in
    f ~time:t.data.(off)
      ~cat:(t.data.(off + 1) lsr 3)
      ~phase:(phase_of_code (t.data.(off + 1) land 7))
      ~id:t.data.(off + 2) ~arg:t.data.(off + 3)
  done
