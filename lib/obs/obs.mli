(** Facade of the observability layer.

    Two global flags gate every instrument site in the simulator; both
    default to off, and the guarded sites are single branches on them, so
    a disabled run does no observability work and allocates nothing on
    the hot path. Enable the flags before creating engines: instruments
    are registered at component-creation time only when the matching flag
    is already on.

    Each {!create} call makes an independent instance (one registry + one
    ring); the DES engine owns one per simulation and subsystems reach it
    through the engine. When either flag is on, instances created on the
    current domain are also collected into a domain-local list so a
    campaign worker can snapshot everything its replicate created
    ({!begin_replicate} / {!replicate_metrics}) and a CLI can export one
    merged trace ({!write_trace}) — both deterministic regardless of
    which domain ran which replicate. *)

val metrics_on : bool ref
val trace_on : bool ref

val enable_metrics : unit -> unit

(** [enable_tracing ?capacity ()] turns tracing on; engines created
    afterwards carry a ring of [capacity] records (default 65536). *)
val enable_tracing : ?capacity:int -> unit -> unit

val disable : unit -> unit

type t = { metrics : Registry.t; ring : Ring.t }

val create : unit -> t

(** Trace-record categories and their exported labels. *)
module Cat : sig
  val des : int
  val noc_link : int
  val noc_drop : int
  val repl : int
  val fault : int
  val resilience : int
  val label : int -> string
end

(** [Cat.fault] ids: which injector recorded the instant. *)
val fault_seu : int
val fault_trojan : int
val fault_link : int


(** Protocol-phase codes packed into the low 3 bits of [Cat.repl] ids. *)
val code_pre_prepare : int
val code_prepare : int
val code_view_change : int

(** Async-span id for one client request at one replica. *)
val repl_request_span : replica:int -> client:int -> rid:int -> int

(** Async-span id for one agreement slot (counter / sequence number) at
    one replica. *)
val repl_counter_span : replica:int -> counter:int -> int

(** Id for instant protocol events (prepare broadcast, view change). *)
val repl_event : replica:int -> code:int -> int

(** Resilience-event codes packed into the low 3 bits of [Cat.resilience]
    ids. [arg] carries the new variant ({!code_restart}, {!code_compromise}),
    the packed origin of the new region ({!code_relocate}), [f]
    ({!code_safety_lost}), or 0. *)
val code_down : int
val code_restart : int
val code_relocate : int
val code_relocate_failed : int
val code_compromise : int
val code_safety_lost : int

(** Id for a resilience event of one replica; the {!repl_event} layout. *)
val resilience_event : replica:int -> code:int -> int

(** A region origin packed into one [arg]: [(x lsl 16) lor y]. *)
val pack_origin : x:int -> y:int -> int

(** The replica and [arg] of a [Cat.resilience] record in words, e.g.
    ["replica 2 variant 3"], as [soc_sim --event-log] prints them. *)
val resilience_detail : id:int -> arg:int -> string

(** Name of a record, as exported in Chrome traces and printed by
    [soc_sim --event-log]. *)
val default_name : cat:int -> id:int -> string

(** Register a hook run just before {!write_trace} exports, letting a
    component emit closing samples (e.g. the NoC's final per-link load
    snapshot). Domain-local; hooks run in registration order and are
    forgotten by {!begin_replicate}. *)
val on_flush : (unit -> unit) -> unit

(** Forget the instances and flush hooks collected on this domain so
    far. *)
val begin_replicate : unit -> unit

(** Merged scalar snapshot of this domain's instances as
    [("obs." ^ name, value)] pairs: counters and histogram count/sum
    cells are summed across instances, gauges take the latest value. *)
val replicate_metrics : unit -> (string * float) list

(** Merged scalar snapshot as a JSON object keyed by metric name. *)
val metrics_json : unit -> string

(** Export every ring collected on this domain to [path] as Chrome
    [trace_event] JSON, and return the records the rings lost to
    wraparound (then also noted in the file, see {!Chrome.to_string}). *)
val write_trace : string -> int
