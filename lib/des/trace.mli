(** Lightweight structured trace of simulation events.

    Keeps the last [capacity] entries in a ring; intended for debugging
    protocol runs and for tests that assert on the event stream. Formatting
    of entries is deferred until the message is actually kept, so disabled
    traces cost one branch. *)

type level = Debug | Info | Warn | Error

type entry = { time : int; level : level; component : string; message : string }

type t

val create : ?capacity:int -> ?min_level:level -> unit -> t
(** Default capacity 4096, default level [Info]. *)

val enabled : t -> level -> bool

val emit : t -> time:int -> level -> component:string -> (unit -> string) -> unit

val entries : t -> entry list
(** Oldest first; at most [capacity] entries. *)

val count : t -> int
(** Total entries ever emitted (including evicted ones). *)

val find : t -> (entry -> bool) -> entry option

val pp_entry : Format.formatter -> entry -> unit

val dump : t -> Format.formatter -> unit
