(** Key distribution for a group of principals.

    Models the usual BFT deployment assumption: every pair of principals
    shares a symmetric key, and every trusted component (USIG) owns a
    component key known to all verifiers' trusted components. Keys are
    derived deterministically from a master seed so that distinct simulation
    components agree without global state. *)

type t

val create : master:int64 -> n:int -> t
(** [create ~master ~n] provisions keys for principals [0 .. n-1]. *)

val pairwise : t -> int -> int -> Mac.key
(** [pairwise t i j] is symmetric: the same key for (i,j) and (j,i).
    Raises [Invalid_argument] on out-of-range principals. *)

val component : t -> int -> Mac.key
(** Key of principal [i]'s trusted component. *)
