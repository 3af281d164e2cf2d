(* Specialized binary min-heap on unboxed int keys with int payloads.

   This is the engine's far-event heap: it holds the events due 64 or more
   cycles ahead, while a per-cycle wheel holds the near ones (engine.ml).
   Both backing arrays are plain int arrays, so the heap itself never
   allocates after warm-up and every comparison is a single machine-word
   compare — no comparator closure, no boxing, no option wrapping on the
   pop path. Sift-up and sift-down
   drag a hole instead of swapping, halving the number of stores.

   Keys need not be distinct as far as this module is concerned, but the
   engine packs (time, seq) into each key precisely so that they are:
   ties then cannot occur and heap order is a total order. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable len : int;
}

let create () = { keys = [||]; vals = [||]; len = 0 }

let size t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.keys in
  if t.len = cap then begin
    let ncap = if cap = 0 then 256 else cap * 2 in
    let nkeys = Array.make ncap 0 and nvals = Array.make ncap 0 in
    Array.blit t.keys 0 nkeys 0 t.len;
    Array.blit t.vals 0 nvals 0 t.len;
    t.keys <- nkeys;
    t.vals <- nvals
  end

let add t key v =
  grow t;
  let keys = t.keys and vals = t.vals in
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if Array.unsafe_get keys parent > key then begin
      Array.unsafe_set keys !i (Array.unsafe_get keys parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set vals !i v

let min_key t =
  if t.len = 0 then invalid_arg "Ipq.min_key: empty queue";
  Array.unsafe_get t.keys 0

let min_val t =
  if t.len = 0 then invalid_arg "Ipq.min_val: empty queue";
  Array.unsafe_get t.vals 0

let remove_min t =
  if t.len = 0 then invalid_arg "Ipq.remove_min: empty queue";
  let len = t.len - 1 in
  t.len <- len;
  if len > 0 then begin
    let keys = t.keys and vals = t.vals in
    (* Re-insert the former last element from the root down, dragging the
       hole toward the smaller child. Stale ints beyond [len] pin nothing. *)
    let key = Array.unsafe_get keys len and v = Array.unsafe_get vals len in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= len then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < len && Array.unsafe_get keys r < Array.unsafe_get keys l then r else l
        in
        if Array.unsafe_get keys c < key then begin
          Array.unsafe_set keys !i (Array.unsafe_get keys c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set vals !i v
  end

(* Re-insert the entries in store order: entry [i] is read before the
   sift-up of the first [i] entries can write to index [i]. *)
let heapify t =
  let n = t.len in
  t.len <- 0;
  for i = 0 to n - 1 do
    add t (Array.unsafe_get t.keys i) (Array.unsafe_get t.vals i)
  done

(* Heapsort in place: each pop parks the minimum in the slot the shrunken
   heap just gave up, which leaves the store descending; one reversal
   makes it ascending, and an ascending array is a valid heap. *)
let sort t =
  let n = t.len in
  for last = n - 1 downto 1 do
    let key = Array.unsafe_get t.keys 0 and v = Array.unsafe_get t.vals 0 in
    remove_min t;
    Array.unsafe_set t.keys last key;
    Array.unsafe_set t.vals last v
  done;
  t.len <- n;
  let keys = t.keys and vals = t.vals in
  for i = 0 to (n / 2) - 1 do
    let j = n - 1 - i in
    let key = Array.unsafe_get keys i and v = Array.unsafe_get vals i in
    Array.unsafe_set keys i (Array.unsafe_get keys j);
    Array.unsafe_set vals i (Array.unsafe_get vals j);
    Array.unsafe_set keys j key;
    Array.unsafe_set vals j v
  done

let check_index t i = if i < 0 || i >= t.len then invalid_arg "Ipq: index out of range"

let nth_key t i =
  check_index t i;
  Array.unsafe_get t.keys i

let nth_val t i =
  check_index t i;
  Array.unsafe_get t.vals i

let set_nth t i key v =
  check_index t i;
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.vals i v

let truncate t n = if n >= 0 && n < t.len then t.len <- n
