(** Fixed-capacity trace ring of packed (time, category, id, arg) int
    records. Recording is four int stores and two bumps — no allocation —
    and when the ring is full the oldest records are overwritten, so a
    long run keeps its most recent window. A capacity of 0 makes every
    [record] a no-op (the disabled state). *)

type t

type phase = Span_begin | Span_end | Instant | Sample | Async_begin | Async_end

val create : capacity:int -> t

val capacity : t -> int

(** Records ever written, including overwritten ones. *)
val total : t -> int

(** Records currently retained. *)
val length : t -> int

(** Records lost to wraparound: [max 0 (total - capacity)]. *)
val dropped : t -> int

val record : t -> time:int -> cat:int -> phase:phase -> id:int -> arg:int -> unit

val span_begin : t -> time:int -> cat:int -> id:int -> arg:int -> unit
val span_end : t -> time:int -> cat:int -> id:int -> arg:int -> unit
val instant : t -> time:int -> cat:int -> id:int -> arg:int -> unit
val sample : t -> time:int -> cat:int -> id:int -> arg:int -> unit
val async_begin : t -> time:int -> cat:int -> id:int -> arg:int -> unit
val async_end : t -> time:int -> cat:int -> id:int -> arg:int -> unit

(** Iterate retained records oldest-first. *)
val iter : t -> (time:int -> cat:int -> phase:phase -> id:int -> arg:int -> unit) -> unit
