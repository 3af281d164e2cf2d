(** Partial configuration bitstreams.

    A bitstream configures one region's worth of frames with a given design
    variant. It carries a checksum over its contents so the configuration
    controller can validate what was written — the paper (§II.E) makes
    "validating that a correct bitstream is written" one of the critical
    reconfiguration duties. *)

type t

val make : variant:int -> w:int -> h:int -> t
(** A valid bitstream implementing design [variant] for a [w]x[h] region. *)

val variant : t -> int

val size_bytes : t -> int
(** Proportional to the frame count; drives reconfiguration timing. *)

val checksum_ok : t -> bool

val corrupt : t -> t
(** Damage the payload without fixing the checksum (fault injection). *)

val forge : t -> variant:int -> t
(** Adversarial relabeling: claims a different variant but keeps the payload;
    detected by [checksum_ok]. *)

val matches_region : t -> Region.t -> bool
