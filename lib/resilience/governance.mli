(** Resilient reconfiguration governance (§II.E; Gouveia et al. [55]).

    Privileged fabric operations — rewriting a region through the ICAP —
    must be *consensual*: a quorum of kernel replicas validates every
    proposed reconfiguration (does the requestor own the slot? is the
    bitstream checksum intact? does its shape match?) and only a [threshold]
    of YES votes releases the operation to the ICAP, whose sole grant is
    held by the governance component (a trusted-trustworthy enforcement
    point). A compromised kernel can vote YES on anything and propose rogue
    operations; with an honest-majority quorum those are blocked, while the
    single-kernel baseline executes them — experiment E8. *)

module Icap = Resoc_fabric.Icap
module Grid = Resoc_fabric.Grid
module Bitstream = Resoc_fabric.Bitstream

type op = {
  slot : Grid.slot_id;
  bitstream : Bitstream.t;
  requestor : int;  (** Principal claiming to own the slot. *)
}

type decision =
  | Executed of Grid.slot_id  (** New slot id after reconfiguration. *)
  | Blocked  (** Vote failed: fewer than [threshold] approvals. *)
  | Icap_rejected of string  (** Vote passed but the port refused (defence in depth). *)

type t

val create :
  Resoc_des.Engine.t ->
  Icap.t ->
  n_kernels:int ->
  threshold:int ->
  ?malicious:bool array ->
  ?vote_latency:int ->
  governance_principal:int ->
  unit ->
  t
(** The caller must have granted [governance_principal] the ICAP scope this
    governor administers. [vote_latency] (default 50) models the kernel
    round-trip per ballot. Malicious kernels always vote YES. *)

val single_kernel :
  Resoc_des.Engine.t -> Icap.t -> ?compromised:bool -> governance_principal:int -> unit -> t
(** The unprotected baseline: one kernel, threshold one. *)

val propose : t -> proposer:int -> op -> (decision -> unit) -> unit
(** [proposer] is the kernel submitting the ballot; a malicious proposer
    pushes rogue ops. Raises [Invalid_argument] on unknown kernels. *)

val executed_legitimate : t -> int
val executed_rogue : t -> int
(** Successful reconfigurations that honest validation would have rejected —
    the security failures E8 counts. *)

val blocked_rogue : t -> int
val blocked_legitimate : t -> int
(** False positives (honest ops blocked), expected 0 with honest majority. *)
