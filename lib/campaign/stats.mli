(** Statistical aggregation over campaign replicates.

    Every multi-seed experiment reports its metrics through these summaries
    so tables carry proper dispersion information (95% confidence intervals,
    Student-t for the small replicate counts typical of a bench run) instead
    of bare point estimates. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  ci95 : float;
      (** half-width of the 95% confidence interval on the mean,
          [t95(n-1) * stddev / sqrt n]; 0 when [n < 2] *)
}

val summarize : float array -> summary
(** Aggregate a metric over replicates. An empty array yields a summary of
    NaNs with [n = 0]. *)

val t95 : df:int -> float
(** Two-sided 95% Student-t critical value for [df] degrees of freedom
    (exact table for df <= 30, standard coarser steps above, 1.96 in the
    limit). Raises [Invalid_argument] if [df <= 0]. *)

val t_quantile : df:int -> p:float -> float
(** The two-sided Student-t critical value: the [t] with
    [P(|T| <= t) = p] for [df] degrees of freedom, exact to float
    precision (closed-form CDF, bisection). [t_quantile ~df ~p:0.95]
    agrees with {!t95} to its three decimals for [df <= 30]. Raises
    [Invalid_argument] if [df <= 0] or [p] is outside (0, 1). *)

type fraction = {
  trials : int;
  successes : int;
  fraction : float;
  lo : float;  (** lower bound of the 95% Wilson score interval *)
  hi : float;  (** upper bound of the 95% Wilson score interval *)
}

val survival : bool array -> fraction
(** Aggregate a boolean outcome (e.g. "survived the horizon") over
    replicates with a Wilson score interval, which stays sensible at the
    0/n and n/n extremes where the normal approximation collapses. *)

val pp_mean_ci : ?decimals:int -> summary -> string
(** ["12.3 ±1.2"]; bare mean when [n < 2]. *)

val pp_fraction : fraction -> string
(** ["14/16 [0.64,0.97]"]. *)
