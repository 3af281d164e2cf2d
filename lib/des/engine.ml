(* Hot-path layout: the queue has two levels, in the style of a hashed
   timing wheel (Varghese & Lauck, SOSP 1987).

   - Near events, due in [now, now + 64), sit in a wheel of 64 buckets,
     one FIFO list per cycle: bucket [time land 63]. The lists are chained
     through [free_next], which a queued slot does not otherwise use (a
     slot is either free or queued, never both).
   - Far events sit in an int-keyed binary heap (Ipq) whose key packs
     (time, seq) into one word — [time lsl seq_bits lor seq] — and whose
     payload is a slot index into the pooled event table.

   Whenever the clock advances, before that cycle's first action runs,
   every heap event now due within 64 cycles moves into its bucket in key
   order. That keeps the firing order exactly (time, seq), as if one queue
   held everything: a heap event for cycle T was scheduled before T entered
   the window, and every direct wheel schedule for T after it did, so each
   bucket's FIFO is seq order. Scheduling in steady state allocates
   nothing: a bucket append or a heap push of two unboxed ints, and the
   slot (action closure cell, cancelled flag, generation) comes off a free
   list.

   seq orders heap events only, and it is a 20-bit era counter, not a
   global one. It only has to order far events that coexist in the heap at
   equal times; when an era runs out we renumber the heap 0..n-1 in (time,
   seq) order, which preserves their relative order exactly, and newly
   scheduled events get larger seqs — so the observable firing order is
   identical to a global sequence number. That identity is what keeps
   simulations bit-for-bit deterministic across this optimization (see
   DESIGN.md).

   Cancellation is lazy: the flag lives in the slot, a cancelled event is
   skipped (and its slot recycled) when popped, and when more than half of
   all queued entries, wheel and heap together, are dead we purge both
   levels in one pass. Dead entries migrate like live ones, so [pending]
   counts exactly what a single queue would. Handles pack (generation,
   slot) so a stale handle — fired, cancelled, or recycled — is a no-op. *)

module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry

let seq_bits = 20
let seq_limit = 1 lsl seq_bits
let max_time = max_int lsr seq_bits

let slot_bits = 22
let slot_limit = 1 lsl slot_bits
let slot_mask = slot_limit - 1

let wheel_size = 64
let wheel_mask = wheel_size - 1

type handle = int

let nop () = ()

type t = {
  mutable now : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable stopped : bool;
  (* Near level: bucket heads and tails, -1 when empty. *)
  heads : int array;
  tails : int array;
  mutable n_near : int;
  (* Far level: events due at [now + 64] or later. *)
  far : Ipq.t;
  (* Event slot pool; all four stores grow together. *)
  mutable actions : (unit -> unit) array;
  mutable cancelled : Bytes.t;
  mutable gens : int array;
  mutable free_next : int array;
  mutable free_head : int;
  mutable n_cancelled : int;
  rng : Rng.t;
  obs : Obs.t;
  obs_fired : int;
  obs_cancelled : int;
  obs_qdepth : int;
}

let create ?(seed = 1L) () =
  let obs = Obs.create () in
  (* Instruments are registered only when metrics are already enabled, so
     a disabled run pays nothing beyond the empty instance. *)
  let obs_fired, obs_cancelled, obs_qdepth =
    if !Obs.metrics_on then
      ( Registry.counter obs.Obs.metrics "des.events_fired",
        Registry.counter obs.Obs.metrics "des.events_cancelled",
        Registry.gauge obs.Obs.metrics "des.queue_depth" )
    else (0, 0, 0)
  in
  {
    now = 0;
    next_seq = 0;
    processed = 0;
    stopped = false;
    heads = Array.make wheel_size (-1);
    tails = Array.make wheel_size (-1);
    n_near = 0;
    far = Ipq.create ();
    actions = [||];
    cancelled = Bytes.empty;
    gens = [||];
    free_next = [||];
    free_head = -1;
    n_cancelled = 0;
    rng = Rng.create seed;
    obs;
    obs_fired;
    obs_cancelled;
    obs_qdepth;
  }

let now t = t.now

let rng t = t.rng

let obs t = t.obs

let grow_pool t =
  let cap = Array.length t.actions in
  if cap >= slot_limit then failwith "Engine: event pool exhausted (2^22 pending events)";
  let ncap = if cap = 0 then 256 else min (cap * 2) slot_limit in
  let nactions = Array.make ncap nop in
  Array.blit t.actions 0 nactions 0 cap;
  t.actions <- nactions;
  let ncancelled = Bytes.make ncap '\000' in
  Bytes.blit t.cancelled 0 ncancelled 0 cap;
  t.cancelled <- ncancelled;
  let ngens = Array.make ncap 0 in
  Array.blit t.gens 0 ngens 0 cap;
  t.gens <- ngens;
  let nfree = Array.make ncap (-1) in
  Array.blit t.free_next 0 nfree 0 cap;
  t.free_next <- nfree;
  (* Thread the new slots onto the free list, lowest index on top. *)
  for i = ncap - 1 downto cap do
    nfree.(i) <- t.free_head;
    t.free_head <- i
  done

let alloc_slot t =
  if t.free_head < 0 then grow_pool t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.free_next slot;
  slot

(* Recycling clears the action cell so a fired event's closure (and
   whatever it captures) is collectable immediately, not when the slot
   happens to be overwritten. The generation bump invalidates
   outstanding handles. *)
let free_slot t slot =
  Array.unsafe_set t.actions slot nop;
  Array.unsafe_set t.gens slot (Array.unsafe_get t.gens slot + 1);
  Array.unsafe_set t.free_next slot t.free_head;
  t.free_head <- slot

let is_dead t slot = Bytes.unsafe_get t.cancelled slot <> '\000'

(* Append [slot] to bucket [b]'s FIFO. *)
let push_near t b slot =
  Array.unsafe_set t.free_next slot (-1);
  let tail = Array.unsafe_get t.tails b in
  if tail < 0 then Array.unsafe_set t.heads b slot
  else Array.unsafe_set t.free_next tail slot;
  Array.unsafe_set t.tails b slot;
  t.n_near <- t.n_near + 1

(* Move every heap event due before [now + 64] into its bucket, in key
   order. Called whenever [now] advances, before any action runs at the
   new time. *)
let migrate t =
  let limit = t.now + wheel_size in
  let far = t.far in
  while (not (Ipq.is_empty far)) && Ipq.min_key far lsr seq_bits < limit do
    let key = Ipq.min_key far and slot = Ipq.min_val far in
    Ipq.remove_min far;
    push_near t ((key lsr seq_bits) land wheel_mask) slot
  done

(* Compact the heap: drop cancelled entries if [drop_cancelled], then
   reassign seqs 0..n-1 in (time, seq) order. Relative order of the
   survivors is untouched, and subsequent events get larger seqs, so
   observable behavior is exactly that of an unbounded global seq. *)
let compact t ~drop_cancelled =
  let pairs = Ipq.to_sorted_pairs t.far in
  let n = Array.length pairs in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let key, slot = Array.unsafe_get pairs i in
    if drop_cancelled && is_dead t slot then begin
      t.n_cancelled <- t.n_cancelled - 1;
      free_slot t slot
    end
    else begin
      pairs.(!kept) <- (((key lsr seq_bits) lsl seq_bits) lor !kept, slot);
      incr kept
    end
  done;
  Ipq.reload t.far (Array.sub pairs 0 !kept);
  t.next_seq <- !kept

let renumber t =
  if Ipq.size t.far >= seq_limit then
    failwith "Engine: more than 2^20 events pending at one time";
  compact t ~drop_cancelled:false

(* Drop every cancelled entry from both levels. Buckets are walked in time
   order from [now] and before the heap, so slots return to the free list
   in the same (time, seq) order a single queue would free them. *)
let purge t =
  for i = 0 to wheel_mask do
    let b = (t.now + i) land wheel_mask in
    let s = ref (Array.unsafe_get t.heads b) in
    t.heads.(b) <- -1;
    t.tails.(b) <- -1;
    while !s >= 0 do
      let slot = !s in
      s := Array.unsafe_get t.free_next slot;
      t.n_near <- t.n_near - 1;
      if is_dead t slot then begin
        t.n_cancelled <- t.n_cancelled - 1;
        free_slot t slot
      end
      else push_near t b slot
    done
  done;
  compact t ~drop_cancelled:true

let pending t = t.n_near + Ipq.size t.far

let at t ~time action =
  if time < t.now then invalid_arg "Engine.at: time is in the past";
  if time > max_time then invalid_arg "Engine.at: time beyond the 42-bit cycle horizon";
  let slot = alloc_slot t in
  Array.unsafe_set t.actions slot action;
  Bytes.unsafe_set t.cancelled slot '\000';
  if time - t.now < wheel_size then push_near t (time land wheel_mask) slot
  else begin
    if t.next_seq = seq_limit then renumber t;
    Ipq.add t.far ((time lsl seq_bits) lor t.next_seq) slot;
    t.next_seq <- t.next_seq + 1
  end;
  (Array.unsafe_get t.gens slot lsl slot_bits) lor slot

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(t.now + delay) action

let every t ~period ?start action =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with Some s -> s | None -> t.now + period in
  (* One closure and one mutable cell per periodic timer, reused for
     every tick: re-arming recycles a pool slot. The re-arm happens after
     [action], exactly where the old recursive version scheduled it, so
     the firing order — and thus determinism — is unchanged. *)
  let next = ref first in
  let rec tick () =
    action ();
    next := !next + period;
    ignore (at t ~time:!next tick)
  in
  ignore (at t ~time:first tick)

let cancel t h =
  let slot = h land slot_mask in
  let gen = h lsr slot_bits in
  if
    slot < Array.length t.gens
    && Array.unsafe_get t.gens slot = gen
    && Bytes.get t.cancelled slot = '\000'
  then begin
    Bytes.set t.cancelled slot '\001';
    t.n_cancelled <- t.n_cancelled + 1;
    if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.obs_cancelled;
    (* Lazy deletion: skip-on-pop is free, but a queue that is mostly
       corpses wastes heap depth and wheel walks — purge once the dead
       outnumber the live. *)
    if t.n_cancelled > 64 && 2 * t.n_cancelled > pending t then purge t
  end

let events_processed t = t.processed

(* Time of the earliest queued entry, dead or alive; -1 when the queue is
   empty. Wheel entries all precede heap entries, and the wheel holds only
   times in [now, now + 64), so the first non-empty bucket from [now] on
   holds the earliest. *)
let next_time t =
  if t.n_near > 0 then begin
    let heads = t.heads and time = ref t.now in
    while Array.unsafe_get heads (!time land wheel_mask) < 0 do
      incr time
    done;
    !time
  end
  else if Ipq.is_empty t.far then -1
  else Ipq.min_key t.far lsr seq_bits

(* Pop the earliest entry, due at [time] (from [next_time]), and run it
   unless it was cancelled. *)
let fire t time =
  let slot =
    if t.n_near > 0 then begin
      let b = time land wheel_mask in
      let slot = Array.unsafe_get t.heads b in
      let next = Array.unsafe_get t.free_next slot in
      Array.unsafe_set t.heads b next;
      if next < 0 then Array.unsafe_set t.tails b (-1);
      t.n_near <- t.n_near - 1;
      slot
    end
    else begin
      let slot = Ipq.min_val t.far in
      Ipq.remove_min t.far;
      slot
    end
  in
  if is_dead t slot then begin
    Bytes.unsafe_set t.cancelled slot '\000';
    t.n_cancelled <- t.n_cancelled - 1;
    free_slot t slot
  end
  else begin
    let action = Array.unsafe_get t.actions slot in
    free_slot t slot;
    if time <> t.now then begin
      t.now <- time;
      migrate t
    end;
    t.processed <- t.processed + 1;
    if !Obs.metrics_on then begin
      Registry.incr t.obs.Obs.metrics t.obs_fired;
      Registry.set t.obs.Obs.metrics t.obs_qdepth (pending t)
    end;
    action ()
  end

let step t =
  let time = next_time t in
  if time < 0 then false
  else begin
    fire t time;
    true
  end

let stop t = t.stopped <- true

let run ?until ?max_events t =
  t.stopped <- false;
  let budget = match max_events with Some m -> ref m | None -> ref max_int in
  let horizon = match until with Some u -> u | None -> max_int in
  (* [true] once nothing queued is due by [horizon]. *)
  let rec loop () =
    if t.stopped then false
    else begin
      let time = next_time t in
      if time < 0 || time > horizon then true
      else if !budget <= 0 then false
      else begin
        decr budget;
        fire t time;
        loop ()
      end
    end
  in
  let drained = loop () in
  (* The clock moves to [until] only past every entry due by then, so a
     run cut short by [max_events] leaves it at the last event fired. *)
  match until with
  | Some u when drained && t.now < u ->
      t.now <- u;
      migrate t
  | Some _ | None -> ()
