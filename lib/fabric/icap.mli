(** Internal Configuration Access Port.

    The single gateway through which partial reconfiguration happens —
    internal (driven from within the fabric), partial (bounded to one
    region) and dynamic (the rest of the FPGA keeps running), per §II.E of
    the paper. The port enforces an access-control list, validates bitstream
    checksums, serializes concurrent requests (real ICAPs are one-word-wide
    serial devices), and models configuration time proportional to the
    bitstream size. *)

type t

type request_result =
  | Configured of Grid.slot_id
  | Denied  (** ACL rejected the principal/region combination. *)
  | Invalid_bitstream  (** Checksum validation failed. *)
  | Region_conflict of string  (** Placement failed (overlap/out of grid). *)
  | Shape_mismatch  (** Bitstream shape does not match the region. *)

val create :
  Resoc_des.Engine.t -> Grid.t -> ?bytes_per_cycle:int -> unit -> t
(** [bytes_per_cycle] defaults to 32 (configuration throughput). *)

val grid : t -> Grid.t

val grant : t -> principal:int -> region:Region.t -> unit
(** Allow [principal] to (re)configure any region contained in [region]. *)

val revoke : t -> principal:int -> unit
(** Drop all of the principal's grants. *)

val configure :
  t ->
  principal:int ->
  region:Region.t ->
  bitstream:Bitstream.t ->
  (request_result -> unit) ->
  unit
(** Place a new slot. Queued behind in-flight operations; the callback fires
    when configuration completes (or immediately on rejection). *)

val reconfigure :
  t ->
  principal:int ->
  slot:Grid.slot_id ->
  bitstream:Bitstream.t ->
  (request_result -> unit) ->
  unit
(** Rewrite an existing slot in place with a new variant. The slot is *down*
    (released, then re-placed) for the duration of the write — the partial
    outage that staggered rejuvenation must schedule around. *)

val completed : t -> int
val rejected : t -> int
(** Lifetime operation counts. *)
