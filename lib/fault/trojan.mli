(** Hardware trojans and kill switches.

    Stealthy logic inserted pre- or post-fabrication (§I, refs [4]-[7]):
    dormant until a time bomb expires or a specific input pattern ("cheat
    code") is observed, then either kills the host component, silently
    corrupts its outputs, or leaks its secrets. *)

type effect = Kill_switch | Corrupt_output | Leak_secret

type trigger =
  | Time_bomb of int  (** Fires at the given absolute cycle. *)
  | Cheat_code of int64  (** Fires when the host observes this input. *)

type t

val plant :
  Resoc_des.Engine.t -> trigger -> effect -> on_trigger:(effect -> unit) -> t
(** Time bombs self-schedule; cheat codes wait for [observe]. *)

val observe : t -> int64 -> unit
(** Feed an input value past the trojan's trigger comparator. *)

val triggered : t -> bool

val disarm : t -> unit
(** E.g. the host region was wiped by reconfiguration before the trigger. *)

