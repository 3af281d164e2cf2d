(** FAIL_<exp>_<cell>_<seed>.json records: everything needed to re-execute a failing
    replicate deterministically — the replicate seed, the size of its original
    injection schedule, the minimized occurrence indices to keep, and the
    (annotated) event list of the minimal reproduction for human eyes.

    Also the one driver that makes and replays them: {!attempt} runs one
    replicate under a mask, {!shrink} turns a failing run into a record. The
    campaign runner, [bench/main.exe --replay] and [soc_sim] all go through
    these two. *)

type event = { kind : Inject.kind; time : int; a : int; b : int; kept : bool }

type t = {
  experiment : string;
  cell : string;
  seed : int64;
  error : string;  (* the failure the schedule reproduces *)
  total_events : int;  (* occurrences in the original failing run *)
  keep : int list;  (* minimal occurrence indices still failing *)
  events : event list;
}

val filename : t -> string
(** [FAIL_<experiment>_<cell>_<seed>.json], with every character of the
    cell outside [[A-Za-z0-9._-]] mapped to [_]. *)

val to_json : t -> string

val write : dir:string -> t -> string
(** Serialize under [dir] (created if missing); returns the full path. *)

val of_json : string -> t
(** Raises [Failure] on malformed input. *)

val read : string -> t

(** {1 The driver} *)

val attempt : ?mask:int * int list -> (unit -> unit) -> string option
(** [attempt ?mask run] runs one replicate on this domain from fresh
    {!Check}, {!Inject} and (when metrics are on) [Obs] replicate state,
    with the suppression mask [(total, keep)] installed if given, and
    returns the failure message ([Printexc.to_string]) of whatever [run]
    raised, or [None] when it ran clean. The caller must have set the
    [Check.enabled] / [Inject.active] gates. The mask stays installed
    afterwards. *)

val shrink : experiment:string -> cell:string -> seed:int64 -> (unit -> unit) -> t option
(** [shrink ~experiment ~cell ~seed run] re-runs [run] unmasked; [None] when
    it runs clean. Otherwise ddmin minimizes its logged injection
    occurrences ({!Shrink.ddmin}) and the record carries the error and the
    occurrence log of the final masked run (the unmasked error should that
    run come out clean). Leaves no mask behind either way. [run] must be
    re-entrant: it is executed many times. *)
