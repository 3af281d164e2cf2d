(* Hot-path layout: the queue is an int-keyed binary heap (Ipq) whose key
   packs (time, seq) into one word — [time lsl seq_bits lor seq] — and
   whose payload is a slot index into a pooled event table. Scheduling in
   steady state therefore allocates nothing: the heap stores two unboxed
   ints, and the slot (action closure cell, cancelled flag, generation)
   comes off a free list.

   seq is a 20-bit era counter, not a global one. It only has to order
   events that coexist in the queue at equal times; when an era runs out
   we renumber the queued events 0..n-1 in (time, seq) order, which
   preserves their relative order exactly, and newly scheduled events get
   larger seqs — so the observable firing order is identical to a global
   sequence number. That identity is what keeps simulations bit-for-bit
   deterministic across this optimization (see DESIGN.md).

   Cancellation is lazy: the flag lives in the slot, a cancelled event is
   skipped (and its slot recycled) when popped, and when more than half
   the queue is dead we purge it in one pass. Handles pack (generation,
   slot) so a stale handle — fired, cancelled, or recycled — is a no-op. *)

module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry

let seq_bits = 20
let seq_limit = 1 lsl seq_bits
let max_time = max_int lsr seq_bits

let slot_bits = 22
let slot_limit = 1 lsl slot_bits
let slot_mask = slot_limit - 1

type handle = int

let nop () = ()

type t = {
  mutable now : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable stopped : bool;
  queue : Ipq.t;
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
    queue = Ipq.create ();
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

(* Compact the queue: drop cancelled entries if [drop_cancelled], then
   reassign seqs 0..n-1 in (time, seq) order. Relative order of the
   survivors is untouched, and subsequent events get larger seqs, so
   observable behavior is exactly that of an unbounded global seq. *)
let compact t ~drop_cancelled =
  let pairs = Ipq.to_sorted_pairs t.queue in
  let n = Array.length pairs in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let key, slot = Array.unsafe_get pairs i in
    if drop_cancelled && Bytes.get t.cancelled slot <> '\000' then begin
      t.n_cancelled <- t.n_cancelled - 1;
      free_slot t slot
    end
    else begin
      pairs.(!kept) <- (((key lsr seq_bits) lsl seq_bits) lor !kept, slot);
      incr kept
    end
  done;
  Ipq.reload t.queue (Array.sub pairs 0 !kept);
  t.next_seq <- !kept

let renumber t =
  if Ipq.size t.queue >= seq_limit then
    failwith "Engine: more than 2^20 events pending at one time";
  compact t ~drop_cancelled:false

let purge t = compact t ~drop_cancelled:true

let at t ~time action =
  if time < t.now then invalid_arg "Engine.at: time is in the past";
  if time > max_time then invalid_arg "Engine.at: time beyond the 42-bit cycle horizon";
  if t.next_seq = seq_limit then renumber t;
  let slot = alloc_slot t in
  Array.unsafe_set t.actions slot action;
  Bytes.unsafe_set t.cancelled slot '\000';
  Ipq.add t.queue ((time lsl seq_bits) lor t.next_seq) slot;
  t.next_seq <- t.next_seq + 1;
  (Array.unsafe_get t.gens slot lsl slot_bits) lor slot

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(t.now + delay) action

let every t ~period ?start action =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let first = match start with Some s -> s | None -> t.now + period in
  (* One closure and one mutable cell per periodic timer, reused for
     every tick: re-arming pushes two ints and recycles a pool slot. The
     re-arm happens after [action], exactly where the old recursive
     version scheduled it, so seq interleaving — and thus determinism —
     is unchanged. *)
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
       corpses wastes heap depth — purge once the dead outnumber the
       live. *)
    if t.n_cancelled > 64 && 2 * t.n_cancelled > Ipq.size t.queue then purge t
  end

let pending t = Ipq.size t.queue

let events_processed t = t.processed

let step t =
  if Ipq.is_empty t.queue then false
  else begin
    let key = Ipq.min_key t.queue and slot = Ipq.min_val t.queue in
    Ipq.remove_min t.queue;
    let action = Array.unsafe_get t.actions slot in
    let dead = Bytes.get t.cancelled slot <> '\000' in
    if dead then begin
      Bytes.set t.cancelled slot '\000';
      t.n_cancelled <- t.n_cancelled - 1;
      free_slot t slot
    end
    else begin
      free_slot t slot;
      t.now <- key lsr seq_bits;
      t.processed <- t.processed + 1;
      if !Obs.metrics_on then begin
        Registry.incr t.obs.Obs.metrics t.obs_fired;
        Registry.set t.obs.Obs.metrics t.obs_qdepth (Ipq.size t.queue)
      end;
      action ()
    end;
    true
  end

let stop t = t.stopped <- true

let run ?until ?max_events t =
  t.stopped <- false;
  let budget = match max_events with Some m -> ref m | None -> ref max_int in
  let horizon = match until with Some u -> u | None -> max_int in
  let rec loop () =
    if t.stopped || !budget <= 0 then ()
    else if Ipq.is_empty t.queue then ()
    else if Ipq.min_key t.queue lsr seq_bits > horizon then ()
    else begin
      decr budget;
      ignore (step t);
      loop ()
    end
  in
  loop ();
  (match until with
  | Some u when t.now < u && not t.stopped -> t.now <- u
  | Some _ | None -> ())
