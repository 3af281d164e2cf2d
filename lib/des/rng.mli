(** Deterministic pseudo-random number generation for simulations.

    SplitMix64 generator: fast, statistically sound for simulation purposes,
    and splittable, so every simulated component can own an independent
    stream derived from the experiment's master seed. All stochastic
    behaviour in resoc flows from one of these generators, which makes every
    run exactly reproducible from its seed. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. Use one
    split per simulated component so that adding draws in one component does
    not perturb the stream seen by another. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val derive : int64 -> int -> int64
(** [derive seed i] is the seed of the [i]-th (0-based) child stream of
    [seed]: [create (derive seed i)] behaves exactly like the generator
    returned by the [(i+1)]-th call to {!split} on [create seed], but is
    computed in O(1). This lets a campaign address any leaf of a seed tree
    (cell [c], replicate [r]) directly, independent of evaluation order.
    Raises [Invalid_argument] if [i < 0]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n). Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)

val exponential : t -> mean:float -> float
(** Exponential variate with the given mean. *)

val geometric : t -> p:float -> int
(** Number of Bernoulli(p) failures before the first success; 0-based. *)

val poisson : t -> mean:float -> int
(** Poisson variate (Knuth's method; suitable for small-to-moderate means). *)

val weibull : t -> shape:float -> scale:float -> float
(** Weibull variate; [shape] > 1 models aging (increasing hazard). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

(** {2 Lane draws}

    SplitMix64 is counter-based, so the [j]-th draw ahead of the current
    state can be computed directly. These helpers let a word-parallel
    evaluator read many trials' draws at once and stay on the exact stream
    the one-at-a-time draws above would produce. *)

val bool_lanes : t -> first:int -> stride:int -> lanes:int -> int
(** [bool_lanes t ~first ~stride ~lanes] has bit [l] (for [l < lanes]) set
    iff the draw [first + l * stride] ahead of [t] (0-based) would make
    {!bool} return [true]. Does not advance [t]. Raises [Invalid_argument]
    unless [0 <= lanes <= 63]. *)

val bernoulli_lanes : t -> float -> first:int -> stride:int -> lanes:int -> int
(** [bernoulli_lanes t p ~first ~stride ~lanes] is the same mask for
    [bernoulli t p]. At [p >= 1] every lane is set and at [p <= 0] none,
    matching {!bernoulli}, which draws nothing there. Does not advance
    [t]. *)

val skip : t -> int -> unit
(** [skip t k] advances [t] by [k] draws in O(1): afterwards [t] is where
    [k] calls of {!int64} would have left it. Raises [Invalid_argument] if
    [k < 0]. *)
