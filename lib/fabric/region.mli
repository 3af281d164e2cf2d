(** Rectangular reconfigurable regions on the FPGA frame grid. *)

type t = { x : int; y : int; w : int; h : int }

val make : x:int -> y:int -> w:int -> h:int -> t
(** Raises [Invalid_argument] on non-positive dimensions or negative origin. *)

val area : t -> int
(** Number of frames covered. *)

val contains : t -> x:int -> y:int -> bool

val overlaps : t -> t -> bool

val frames : t -> (int * int) list
(** All (x, y) frame coordinates covered, row-major. *)

val fits : t -> grid_w:int -> grid_h:int -> bool

val with_origin : t -> x:int -> y:int -> t
(** Same shape at a different origin (spatial relocation). *)

val equal : t -> t -> bool
