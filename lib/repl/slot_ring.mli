(** Fixed-capacity agreement log: pooled entry records in a ring indexed
    by [seq mod capacity]. Replaces the [(seq, entry) Hashtbl.t] of the
    replication protocols — lookup is a mask plus an int compare, and
    entry records are reused in place instead of reallocated per
    sequence number.

    The ring doubles automatically if two live sequence numbers ever
    collide on a slot, so capacity is a sizing hint, not a limit.
    Doubling is bounded: colliding outliers (e.g. SEU-corrupted
    sequence numbers far from the live window) land in a small dense
    overflow array instead of forcing the ring to span the gap. *)

type 'a t

val create : capacity:int -> fresh:(int -> 'a) -> 'a t
(** [create ~capacity ~fresh] rounds [capacity] up to a power of two
    (minimum 8). Slot [i] gets its record [fresh i] when a sequence number
    first claims it; [fresh (-1)] makes one shared placeholder that is
    never returned. *)

val capacity : 'a t -> int

val slot : 'a t -> int -> int
(** [slot t seq] is the slot index bound to [seq], or [-1]. Indices are
    transient — any [bind] or [release] may invalidate them. Corrupted
    (even negative) sequence numbers are ordinary keys. *)

val mem : 'a t -> int -> bool

val entry : 'a t -> int -> 'a
(** The pooled record in a slot returned by {!slot} or {!bind}. *)

val bind : 'a t -> int -> 'a * bool
(** [bind t seq] claims the slot for [seq] and returns its pooled
    record. The flag is [true] when the slot was just bound — the
    caller must reset the record before use — and [false] when [seq]
    was already live in the ring. *)

val release : 'a t -> int -> unit
(** Unbind [seq] (retention); its record stays pooled for reuse. *)

val prune_outside : 'a t -> low:int -> high:int -> unit
(** Unbind every overflow entry whose seq lies outside [[low, high]].
    Overflow slots hold corrupt-seq outliers that no exact-seq
    {!release} will ever reach, so a moving retention window (or
    stable-checkpoint low watermark) must sweep them explicitly or
    they accumulate for the whole run. Ring slots are untouched: they
    are bounded and prune themselves through {!release}. *)

val reset : 'a t -> unit
(** Unbind every sequence number, keeping the pooled records. *)
