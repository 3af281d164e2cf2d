(** Modular-redundancy reliability: closed forms and Monte-Carlo estimators.

    Backs experiment E1 (gate-level redundancy, Fig. 1 bottom layer): the
    classic result that TMR with reliability-R modules achieves
    R_TMR = 3R^2 - 2R^3, beating a simplex module only when R > 1/2, and the
    degradation caused by a fallible voter. *)

val binomial : int -> int -> float
(** [binomial n k] = C(n,k) as a float. *)

val r_nmr : n:int -> float -> float
(** [r_nmr ~n r]: probability that a majority of [n] (odd) independent
    modules of reliability [r] are correct, with a perfect voter. *)

val r_tmr : float -> float
(** [r_nmr ~n:3]. *)

val r_nmr_with_voter : n:int -> voter:float -> float -> float
(** Voter in series: [voter *. r_nmr ~n r]. *)

val mc_module_nmr :
  Resoc_des.Rng.t -> n:int -> trials:int -> p_fail:float -> float
(** Monte-Carlo estimate of NMR system failure probability when each module
    fails independently with probability [p_fail]; perfect voter. Returns
    the estimated system failure probability. *)

val mc_circuit_correct :
  Resoc_des.Rng.t -> Circuit.t -> trials:int -> p_gate:float -> float
(** Fraction of random-input trials in which a faulty evaluation of the
    circuit matches its fault-free evaluation. This exercises real gate
    netlists, so the voter's own gates fail too. *)
