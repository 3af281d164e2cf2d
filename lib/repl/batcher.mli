(** Shared primary-side request batching and agreement pipelining.

    One batcher instance lives on each replica of a protocol whose config
    carries an {e active} {!Types.batching} (window or batch size beyond
    the trivial 1-request/0-wait point); only the current primary/leader
    feeds it. Requests accumulate in arrival order until the window
    elapses or [max_batch] requests are buffered, then [seal] orders the
    batch as ONE agreement instance. Sealing is gated by [ready], the
    protocol's pipeline bound: at most [pipeline_depth] instances in
    flight, and never past the checkpoint high watermark. While the gate
    is closed the backlog parks here; the protocol calls {!kick} whenever
    execution progresses or the watermark advances.

    Instruments ("repl.batch_size", "repl.pipeline_occupancy") are
    creation-gated on [Obs.metrics_on], same discipline as everywhere
    else. *)

type t

val test_duplicate_first : bool ref
(** Mutation knob: duplicate the first request of every sealed batch into
    the next one, violating batch atomicity — proves the checker's
    invariant fires. Never set outside tests. *)

val active : Types.batching -> bool
(** [max_batch > 1 || window_cycles > 0]. An inactive config ("armed but
    unused", the determinism-gate probe) must not change behavior, so
    protocols skip creating a batcher for it. Every site that attaches a
    batcher asks this first, so it is also the one validity check: it
    raises [Invalid_argument] when [max_batch < 1], [window_cycles < 0] or
    [pipeline_depth < 1] (an empty batch would seal forever; a closed
    pipeline would never seal), inert or not. *)

val create :
  engine:Resoc_des.Engine.t ->
  cfg:Types.batching ->
  seal:(Types.request list -> unit) ->
  ready:(unit -> bool) ->
  occupancy:(unit -> int) ->
  t

val add : t -> Types.request -> unit
(** Buffer one request (callers dedup against already-ordered requests
    first); may seal immediately. *)

val kick : t -> unit
(** Retry sealing: call on execution progress / watermark advance. *)

val buffered : t -> int

val clear : t -> unit
(** Drop the buffer (view change or rejuvenation wipe). *)
