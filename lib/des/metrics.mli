(** Measurement primitives shared by all experiments.

    Histograms summarise value distributions (latencies, hop counts);
    cheap enough to leave enabled. Counters live in the obs registry. *)

module Histogram : sig
  type t

  val create : string -> t
  val name : t -> string
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] with [p] in [0,100], nearest-rank on sorted samples;
      0 when empty. *)

  val reset : t -> unit
end
