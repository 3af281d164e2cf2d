(** Advanced-persistent-threat adversary model.

    The adversary invests effort to develop exploits, *one variant at a
    time* and only for variants it has seen deployed: development of each
    exploit takes an exponentially-distributed effort around
    [mean_exploit_cycles], and work on the next queued variant starts when
    the previous one is done. Exploits, once developed, are never forgotten.

    A target running variant [v] is compromised once the exploit for [v] is
    ready and the target has been continuously exposed for [exposure]
    cycles. Rejuvenation resets the exposure clock; *diverse* rejuvenation
    additionally switches the variant, forcing the adversary to chase a new
    exploit — the §II.C argument, quantified in E6.

    A target may also be [backdoored] (its fabric region covers a trojaned
    frame): then it is compromised [backdoor_delay] cycles after the
    placement landed on the trojan, regardless of variant. Rejuvenation in
    place does NOT reset that clock — the trojan lives in the grid fabric —
    only re-registering with [backdoored:false] (spatial relocation)
    escapes (§II.C's FPGA-grid backdoors). *)

type t

type target

val create :
  Resoc_des.Engine.t ->
  Resoc_des.Rng.t ->
  n_variants:int ->
  mean_exploit_cycles:float ->
  exposure:int ->
  ?backdoor_delay:int ->
  unit ->
  t
(** [backdoor_delay] defaults to [exposure]. *)

val exploit_ready_at : t -> variant:int -> int option
(** When the exploit for [variant] is (or will be) usable; [None] while the
    adversary has never seen the variant deployed. *)

val register_target :
  t -> id:int -> variant:int -> ?backdoored:bool -> on_compromise:(int -> unit) -> unit -> target
(** Start watching a component; [on_compromise] fires (with [id]) at the
    moment of compromise, once per exposure period. Deploying a variant for
    the first time queues its exploit development. *)

val rejuvenate : t -> target -> variant:int -> ?backdoored:bool -> unit -> unit
(** The target restarts clean on [variant]; exposure clock resets. *)

val deactivate : t -> target -> unit
(** The target is retired; it can no longer be compromised. *)

val compromised : target -> bool

val compromised_count : t -> int
(** Currently-compromised active targets. *)

val active_count : t -> int

