(** The FPGA grid fabric: a plane of configuration frames.

    Tracks which frames belong to which placed region, which design variant
    occupies them, and which frames hide a fabric-level trojan (§II.C's
    "potential backdoors in the FPGA grid fabric"): a slot whose region
    covers a trojaned frame is considered exploitable by the adversary.
    Spatial relocation during rejuvenation exists precisely to move off such
    frames. *)

type t

type slot_id = int
(** Handle for a placed region. *)

type slot = { id : slot_id; region : Region.t; variant : int; owner : int }

val create : width:int -> height:int -> t

val width : t -> int
val height : t -> int

val mark_trojaned : t -> x:int -> y:int -> unit
(** Plant a fabric trojan under frame (x, y). *)

val place : t -> region:Region.t -> variant:int -> owner:int -> (slot_id, string) result
(** Claims the region's frames. Fails if out of bounds or overlapping an
    existing slot. *)

val release : t -> slot_id -> unit
(** Frees the slot's frames. Unknown ids raise [Invalid_argument]. *)

val slot : t -> slot_id -> slot option

val slots : t -> slot list

val set_variant : t -> slot_id -> int -> unit
(** In-place variant change (the effect of a successful reconfiguration). *)

val slot_on_trojaned_frame : t -> slot_id -> bool

val free_area : t -> int

val find_placement : t -> w:int -> h:int -> ?avoid_trojaned:bool -> unit -> Region.t option
(** First-fit scan for a free [w]x[h] region; with [avoid_trojaned] (default
    false) also skips trojaned frames. *)

val relocate : t -> slot_id -> ?avoid_trojaned:bool -> unit -> (Region.t, string) result
(** Move a slot to a fresh placement (frees the old frames). Fails when no
    alternative placement exists. *)

val occupancy : t -> float
(** Fraction of frames in use. *)
