(* Open-addressed hash map from 64-bit digests to arbitrary values.

   Replaces the [(Hash.t, _) Hashtbl.t] digest tables on the replication
   hot path ([ordered], [timers], [pending]). Digests are already
   avalanched (see Hash), so the bucket is just the low bits; collisions
   resolve by linear probing. Deletion shifts the rest of the probe run
   back over the hole (Knuth's Algorithm R), so there are no tombstones:
   every run is as short as the live entries make it, and the table only
   ever grows, at 3/4 occupancy.

   [index] and [set] probe in loops over local refs, and keys are stored
   as the boxed int64s the caller already holds, so a lookup, a [set] or
   a [remove_at] allocates nothing once the value array exists. The value
   array is created lazily from the first inserted value (no dummy needed
   for abstract types like engine handles). *)

type 'a t = {
  mutable state : Bytes.t;  (* '\000' empty | '\001' full *)
  mutable keys : int64 array;
  mutable vals : 'a array;  (* [||] until the first set *)
  mutable live : int;
}

let empty_slot = '\000'
let full_slot = '\001'

let create ?(capacity = 16) () =
  let cap = ref 8 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { state = Bytes.make !cap empty_slot; keys = Array.make !cap 0L; vals = [||]; live = 0 }

let length t = t.live

let mask t = Bytes.length t.state - 1

(* Digests are uniformly mixed already; fold the high bits in once so
   truncated low bits cannot alias systematically. *)
let bucket t k = (Int64.to_int k lxor Int64.to_int (Int64.shift_right_logical k 32)) land mask t

let full t i = Bytes.unsafe_get t.state i = full_slot

(* Slot of [k] if present, else -1. The table is never full, so the
   probe always meets an empty slot or the key. *)
let index t k =
  let m = mask t in
  let i = ref (bucket t k) in
  while full t !i && not (Int64.equal (Array.unsafe_get t.keys !i) k) do
    i := (!i + 1) land m
  done;
  if full t !i then !i else -1

let mem t k = index t k >= 0

let value_at t i = Array.unsafe_get t.vals i

(* Empty slot [i], then walk the run after it: an entry whose home
   bucket does not lie cyclically in (hole, j] may move back into the
   hole, which then moves to [j]. The walk ends at the first empty slot. *)
let remove_at t i =
  let m = mask t in
  let hole = ref i and j = ref ((i + 1) land m) in
  while full t !j do
    let home = bucket t (Array.unsafe_get t.keys !j) in
    let h = !hole and j' = !j in
    let stays = if h <= j' then h < home && home <= j' else h < home || home <= j' in
    if not stays then begin
      Array.unsafe_set t.keys h (Array.unsafe_get t.keys j');
      Array.unsafe_set t.vals h (Array.unsafe_get t.vals j');
      hole := j'
    end;
    j := (j' + 1) land m
  done;
  Bytes.unsafe_set t.state !hole empty_slot;
  t.live <- t.live - 1

let remove t k =
  let i = index t k in
  if i >= 0 then remove_at t i

let get t k =
  let i = index t k in
  if i >= 0 then Some (value_at t i) else None

let iter f t =
  for i = 0 to Bytes.length t.state - 1 do
    if full t i then f t.keys.(i) t.vals.(i)
  done

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Bytes.length t.state - 1 do
    if full t i then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc

let reset t =
  Bytes.fill t.state 0 (Bytes.length t.state) empty_slot;
  if Array.length t.vals > 0 then begin
    (* Drop value pointers so resets do not retain dead requests. *)
    let filler = t.vals.(0) in
    Array.fill t.vals 0 (Array.length t.vals) filler
  end;
  t.live <- 0

let rec grow t =
  let old_state = t.state and old_keys = t.keys and old_vals = t.vals in
  let capacity = 2 * Bytes.length old_state in
  t.state <- Bytes.make capacity empty_slot;
  t.keys <- Array.make capacity 0L;
  t.vals <- Array.make capacity old_vals.(0);
  t.live <- 0;
  for i = 0 to Bytes.length old_state - 1 do
    if Bytes.unsafe_get old_state i = full_slot then set t old_keys.(i) old_vals.(i)
  done

and set t k v =
  if Array.length t.vals = 0 then t.vals <- Array.make (Bytes.length t.state) v;
  let m = mask t in
  let i = ref (bucket t k) in
  while full t !i && not (Int64.equal (Array.unsafe_get t.keys !i) k) do
    i := (!i + 1) land m
  done;
  let i = !i in
  if full t i then Array.unsafe_set t.vals i v
  else begin
    Bytes.unsafe_set t.state i full_slot;
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.live <- t.live + 1;
    (* Keep probes short: grow at 3/4 occupancy. *)
    if 4 * t.live >= 3 * Bytes.length t.state then grow t
  end
