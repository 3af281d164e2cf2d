(* Fixed-capacity agreement log: a ring of pooled entry records indexed
   by [seq mod capacity].

   Agreement logs are dense in sequence numbers and pruned by retention
   (entries older than [last_exec - 256] are dropped), so at any moment
   the live window spans at most retention + in-flight slots. A ring
   sized to a power of two above that window replaces the
   [(seq, entry) Hashtbl.t]: lookup is a mask and an int compare, and
   the entry records themselves are allocated once per slot, when a
   sequence number first claims it, and reset in place by every later
   claim. Until then the slot holds a shared [vacant] record, so a
   replica that never orders 512 requests never pays for 512 records.

   If a burst pushes the live window past the capacity (two live seqs
   mapping to one slot), the ring doubles and re-places the live
   entries — correctness never depends on the initial sizing. Growth is
   bounded, though: fault campaigns can corrupt a sequence number into
   an arbitrary 63-bit value (an SEU flipping bit 31 of a USIG counter
   binds a log entry near 2^31), and a direct-mapped ring would have to
   double until it spanned the gap. Past [max_direct] slots the ring
   stops growing and shunts colliding outliers into a small dense
   overflow array instead: linear-scanned, swap-removed, and only ever
   touched after a ring miss, which healthy runs never take.

   The free-slot sentinel is [min_int], not [-1], so corrupted
   *negative* sequence numbers remain ordinary (storable) keys exactly
   as they were for the Hashtbl this replaces. *)

type 'a t = {
  mutable seqs : int array;  (* seqs.(i) = the seq bound to slot i, or free *)
  mutable entries : 'a array;  (* one pooled record per claimed slot, else [vacant] *)
  fresh : int -> 'a;  (* allocator, called when a slot is first claimed *)
  vacant : 'a;  (* placeholder of never-claimed slots; never handed out *)
  mutable ov_seqs : int array;  (* overflow keys, dense in [0, ov_live) *)
  mutable ov_entries : 'a array;
  mutable ov_live : int;
}

let free = min_int

(* Direct-mapped slots stop doubling here; outliers overflow instead.
   2^15 slots of pooled records is a few MB per replica at most, and a
   healthy live window never gets near it. *)
let max_direct = 1 lsl 15

let create ~capacity ~fresh =
  let cap = ref 8 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let vacant = fresh (-1) in
  {
    seqs = Array.make !cap free;
    entries = Array.make !cap vacant;
    fresh;
    vacant;
    ov_seqs = [||];
    ov_entries = [||];
    ov_live = 0;
  }

let capacity t = Array.length t.seqs

(* Overflow index of [seq], or -1. Only called after a ring miss. *)
let ov_find t seq =
  let n = t.ov_live in
  let rec scan i = if i >= n then -1 else if t.ov_seqs.(i) = seq then i else scan (i + 1) in
  scan 0

(* Slot index of [seq] if bound: a ring index, or [capacity + k] for
   overflow slot [k], or -1. [land] with the mask is a valid mod even
   for (corrupted) negative seqs. *)
let slot t seq =
  let cap = Array.length t.seqs in
  let i = seq land (cap - 1) in
  if Array.unsafe_get t.seqs i = seq then i
  else if t.ov_live = 0 then -1
  else
    let k = ov_find t seq in
    if k >= 0 then cap + k else -1

let mem t seq = slot t seq >= 0

let entry t i =
  let cap = Array.length t.seqs in
  if i < cap then Array.unsafe_get t.entries i else Array.unsafe_get t.ov_entries (i - cap)

(* Double the ring. Live seqs occupy distinct slots mod cap, hence
   distinct slots mod 2*cap — re-placing them can never clash. *)
let grow t =
  let cap = Array.length t.seqs in
  let ncap = 2 * cap in
  let nseqs = Array.make ncap free in
  let nentries = Array.make ncap t.vacant in
  for i = 0 to cap - 1 do
    let seq = t.seqs.(i) in
    if seq <> free then begin
      let j = seq land (ncap - 1) in
      nseqs.(j) <- seq;
      nentries.(j) <- t.entries.(i)
    end
  done;
  t.seqs <- nseqs;
  t.entries <- nentries

let ov_claim t seq =
  let n = t.ov_live in
  if n = Array.length t.ov_seqs then begin
    let ncap = max 4 (2 * n) in
    let nseqs = Array.make ncap free in
    Array.blit t.ov_seqs 0 nseqs 0 n;
    let nentries = Array.init ncap (fun i -> if i < n then t.ov_entries.(i) else t.fresh i) in
    t.ov_seqs <- nseqs;
    t.ov_entries <- nentries
  end;
  t.ov_seqs.(n) <- seq;
  t.ov_live <- n + 1;
  t.ov_entries.(n)

(* Claim the slot for [seq]. Returns [(entry, fresh_claim)]: when
   [fresh_claim] is true the slot was just (re)bound and the caller must
   reset the pooled record before use; when false, [seq] was already
   bound and the record holds its live state. A slot still bound to a
   *different* live seq forces growth up to [max_direct], then the
   overflow array takes the newcomer. *)
let rec bind t seq =
  let cap = Array.length t.seqs in
  let i = seq land (cap - 1) in
  let bound = Array.unsafe_get t.seqs i in
  if bound = seq then (Array.unsafe_get t.entries i, false)
  else
    match if t.ov_live > 0 then ov_find t seq else -1 with
    | k when k >= 0 -> (t.ov_entries.(k), false)
    | _ ->
      if bound = free then begin
        Array.unsafe_set t.seqs i seq;
        let e = Array.unsafe_get t.entries i in
        if e != t.vacant then (e, true)
        else
          let e = t.fresh i in
          Array.unsafe_set t.entries i e;
          (e, true)
      end
      else if cap < max_direct then begin
        grow t;
        bind t seq
      end
      else (ov_claim t seq, true)

let release t seq =
  let i = seq land (Array.length t.seqs - 1) in
  if Array.unsafe_get t.seqs i = seq then Array.unsafe_set t.seqs i free
  else if t.ov_live > 0 then begin
    let k = ov_find t seq in
    if k >= 0 then begin
      (* Swap-remove, exchanging records so every slot keeps one. *)
      let last = t.ov_live - 1 in
      let e = t.ov_entries.(k) in
      t.ov_seqs.(k) <- t.ov_seqs.(last);
      t.ov_entries.(k) <- t.ov_entries.(last);
      t.ov_seqs.(last) <- free;
      t.ov_entries.(last) <- e;
      t.ov_live <- last
    end
  end

(* Drop overflow bindings whose seq falls outside [low, high]. Ring
   slots prune themselves through [release] as execution advances (and
   are bounded at [max_direct] regardless), but overflow entries are
   only ever removed by an exact-seq [release] — and a corrupted seq
   (the reason the entry overflowed at all) is one the protocol will
   never execute, so without this sweep outliers accumulate for the
   whole run. Called when the retention window (or a stable-checkpoint
   low watermark) moves. *)
let prune_outside t ~low ~high =
  if t.ov_live > 0 then begin
    let k = ref 0 in
    while !k < t.ov_live do
      let seq = t.ov_seqs.(!k) in
      if seq < low || seq > high then begin
        let last = t.ov_live - 1 in
        let e = t.ov_entries.(!k) in
        t.ov_seqs.(!k) <- t.ov_seqs.(last);
        t.ov_entries.(!k) <- t.ov_entries.(last);
        t.ov_seqs.(last) <- free;
        t.ov_entries.(last) <- e;
        t.ov_live <- last
        (* Re-examine slot !k: it now holds the swapped-in entry. *)
      end
      else incr k
    done
  end

let reset t =
  Array.fill t.seqs 0 (Array.length t.seqs) free;
  t.ov_live <- 0
