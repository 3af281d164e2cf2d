(** Threat-adaptive resilience controller (§II.D).

    Periodically reads the {!Threat} detector and adjusts the fault budget f
    — scaling the replica group out when threat rises and back in when it
    subsides (hysteresis plus a cooldown prevent flapping). The mechanics of
    changing the group (spawning softcores on spare tiles, epoch change,
    state transfer) are behind the [scale_to] hook, so the controller works
    for protocol-level groups and for abstract compromise models alike. *)

type action = Raise_f of int | Lower_f of int
(** Payload is the new f. *)

type policy = {
  f_min : int;
  f_max : int;
  raise_threshold : float;  (** Threat level that triggers scale-out. *)
  lower_threshold : float;  (** Level below which to scale back in. *)
  eval_period : int;
  cooldown : int;  (** Minimum cycles between actions. *)
}

val default_policy : policy

type hooks = {
  current_f : unit -> int;
  scale_to : int -> unit;  (** Reconfigure the group for the new f. *)
}

type t

val start : Resoc_des.Engine.t -> policy -> Threat.t -> hooks -> t

val actions : t -> (int * action) list
(** Chronological (time, action) decisions. *)

val stop : t -> unit
