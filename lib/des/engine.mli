(** Deterministic discrete-event simulation engine.

    Time is a count of SoC clock cycles (an [int], at most 2^42-1 so that
    time and a sequence number pack into one word). Events scheduled for
    the same cycle fire in scheduling order (FIFO per cycle), which —
    together with the seeded RNG tree — makes every simulation run a pure
    function of its master seed and configuration.

    The queue has two levels: events due in the next 64 cycles sit in a
    wheel of per-cycle FIFO buckets, later ones in a packed int-keyed heap,
    and heap events move into their bucket as the clock comes within 64
    cycles of them. The firing order is exactly that of one queue ordered
    by (time, scheduling order). Steady-state scheduling is
    allocation-free: event cells are pooled (see DESIGN.md §4). *)

type t

type handle
(** A scheduled event, usable for cancellation (e.g. protocol timers).
    Handles are engine-specific tokens; a handle whose event has fired,
    been cancelled, or been recycled is stale, and cancelling it is a
    no-op. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes an engine at time 0. Default seed is 1. *)

val now : t -> int
(** Current simulated time in cycles. *)

val rng : t -> Rng.t
(** The engine's master generator. Components should [Rng.split] it once at
    construction rather than drawing from it during the run. *)

val obs : t -> Resoc_obs.Obs.t
(** The engine's observability instance (metrics registry + trace ring).
    Subsystems built on this engine register their instruments here; all
    recording sites are gated on the global [Resoc_obs.Obs] flags and
    cost one branch when disabled. *)

val schedule : t -> delay:int -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative; [delay = 0] fires later in the current cycle. *)

val at : t -> time:int -> (unit -> unit) -> handle
(** [at t ~time f] runs [f] at absolute cycle [time] (>= [now t]). *)

val every : t -> period:int -> ?start:int -> (unit -> unit) -> unit
(** [every t ~period f] runs [f] at [start], [start+period], ... until the
    simulation ends. [start] defaults to [now t + period]. Each periodic
    timer re-arms itself by recycling one pooled event: no per-tick
    allocation. *)

val cancel : t -> handle -> unit
(** [cancel t h] marks the event lazily deleted: it is skipped (and its
    slot recycled) when its time comes, and the engine compacts the queue
    if cancelled events come to dominate it. Cancelling a fired, already
    cancelled, or recycled handle is a no-op. *)

val pending : t -> int
(** Number of events still queued, in the wheel and the heap together.
    Cancelled events are counted until they are popped or purged, so this
    is an upper bound on live events. *)

val events_processed : t -> int

val step : t -> bool
(** Execute the next event. Returns [false] when the queue is empty. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the queue. [until] stops the clock at that cycle: events beyond it
    stay queued, and once none is due by [until], [now] is clamped to it.
    [max_events] guards against runaway simulations; it counts every event
    taken off the queue, cancelled ones included. A run that [max_events]
    cuts short leaves [now] at the last event fired. *)

val stop : t -> unit
(** Makes the current [run] return after the event in progress. *)
