(** Deterministic seed derivation for campaign grids.

    Every replicate's seed is a pure function of (root seed, cell index,
    replicate index) through the SplitMix64 split tree ({!Resoc_des.Rng}),
    so results are bit-identical regardless of worker count or scheduling
    order, and [--seeds N] scales every experiment uniformly from one root
    seed instead of ad-hoc hardcoded lists. *)

val replicate_seed : root:int64 -> cell:int -> replicate:int -> int64
(** Seed of the [replicate]-th replicate within a cell: one more level of
    the split tree below the cell's own stream. *)

val replicate_seeds : root:int64 -> cell:int -> n:int -> int64 array
(** The first [n] replicate seeds of a cell, in replicate order. *)
