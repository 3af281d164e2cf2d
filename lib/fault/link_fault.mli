(** NoC link-failure campaign: Poisson transient upsets plus Weibull
    wear-out over the real (non-border) links of a mesh.

    Upsets arrive as a Poisson process at [upset_rate] per link per cycle
    — exponential inter-arrival over the fabric, uniform victim link — and
    heal after an exponential repair delay (mean [upset_repair_mean]
    cycles). Wear-out draws one Weibull([wearout_shape], [wearout_scale])
    lifetime per link up front and lands as a permanent failure that the
    upset-repair path never resurrects. A scale of [0.0] disables
    wear-out; an upset rate of [0.0] disables upsets.

    Every event asks {!Resoc_check.Inject.permit} with [kind:Link] before
    touching the mesh (coordinates: link id, and 0 = upset / 1 =
    wear-out), and all RNG draws happen before the permit call, so
    deterministic replay and suppression-mask shrinking work unchanged on
    link campaigns. Routing reacts through the mesh's change
    notification ({!Resoc_noc.Mesh.on_change}). *)

type config = {
  upset_rate : float;  (** transient failures per link per cycle. *)
  upset_repair_mean : float;  (** mean repair delay in cycles. *)
  wearout_shape : float;  (** Weibull shape (k > 1 = aging dominates). *)
  wearout_scale : float;  (** Weibull characteristic life; 0 disables. *)
}

val default_config : config
(** No upsets, 200-cycle mean repair, shape 2.0, wear-out disabled. *)

type t

val start : Resoc_des.Engine.t -> Resoc_des.Rng.t -> Resoc_noc.Mesh.t -> config -> t

val halt : t -> unit
(** Stop scheduling new events; already-scheduled repairs are abandoned. *)

val upsets : t -> int
val wearouts : t -> int
