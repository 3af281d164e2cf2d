(** The paper's system, assembled: a BFT group on a mesh NoC whose replicas
    live in FPGA fabric regions, defended by diversity, staggered (diverse,
    optionally relocating) rejuvenation, and watched by an APT adversary
    with per-variant exploits and fabric backdoors.

    This is the integration point of every substrate library and the engine
    behind experiments E6/F1 and the domain examples: one [create], one
    [run], one {!report}. With tracing on, each rejuvenation, restart,
    relocation, compromise and safety loss is an instant record on the
    engine's obs ring under [Resoc_obs.Obs.Cat.resilience]. *)

module Engine = Resoc_des.Engine
module Register = Resoc_hw.Register
module Diversity = Resoc_resilience.Diversity
module Rejuvenation = Resoc_resilience.Rejuvenation
module Stats = Resoc_repl.Stats

type apt_config = {
  mean_exploit_cycles : float;
  exposure : int;  (** Continuous exposure before a ready exploit lands. *)
  backdoor_delay : int;  (** Compromise time via a trojaned fabric frame. *)
  detection_prob : float;  (** Chance a compromise is noticed... *)
  detection_delay : int;  (** ...this long after it happens, triggering a
                              reactive rejuvenation when enabled. *)
}

val default_apt : apt_config

type config = {
  soc : Soc.config;
  group : Group.spec;
  n_variants : int;
  shared_vuln_prob : float;
  diversity : Diversity.strategy;
  rejuvenation : Rejuvenation.policy option;  (** None = never rejuvenate. *)
  relocate_on_rejuvenation : bool;  (** Move the fabric region off
                                        (potentially trojaned) frames. *)
  reactive_rejuvenation : bool;  (** Rejuvenate on detected compromise. *)
  apt : apt_config option;
  trojaned_frames : (int * int) list;  (** Backdoors planted in the grid. *)
  region_edge : int;  (** Replica regions are edge x edge frames. *)
  sample_period : int;  (** Compromise-count sampling cadence. *)
}

val default_config : config
(** MinBFT f=1 on a 4x4 mesh, 4 variants, max-diversity, staggered diverse
    rejuvenation every 50k cycles, APT enabled, no trojans. *)

type report = {
  horizon : int;
  submitted : int;
  completed : int;
  availability : float;  (** completed / submitted. *)
  throughput_kcycle : float;
  latency_mean : float;
  latency_p99 : float;
  view_changes : int;
  wrong_replies : int;
  messages : int;
  bytes : int;
  rejuvenations : int;
  checkpoints : int;  (** Stable-checkpoint certificates formed (group-wide). *)
  state_transfers : int;  (** Certified transfers installed by rejoiners. *)
  transfer_bytes : int;  (** Nominal NoC bytes spent on transfer chunks. *)
  transfer_cycles_mean : float;  (** Mean fetch-to-install latency. *)
  compromises : int;  (** Total compromise events (incl. re-compromises). *)
  compromised_peak : int;  (** Max simultaneously-compromised replicas. *)
  failed_at : int option;  (** First instant more than f replicas were
                               compromised at once — BFT safety lost. *)
}

val pp_report : Format.formatter -> report -> unit

type t

val create : config -> t

val soc : t -> Soc.t
val group : t -> Group.t

val variant_of : t -> replica:int -> int

val run : t -> horizon:int -> workload_period:int -> report
(** Drives a periodic workload (one request per client every
    [workload_period] cycles) until [horizon], then snapshots the report.
    Can be called once per system. *)
