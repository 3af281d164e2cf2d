(** Gate-level combinational circuits with fault injection.

    A circuit is a topologically ordered netlist of primitive gates. Each
    gate evaluation can be upset with a per-gate failure probability,
    flipping its output — the fault model behind the gate-level redundancy
    arguments of Fig. 1's bottom layer (refs [13]-[18] of the paper). *)

type kind =
  | Input of int  (** [Input k]: the circuit's k-th primary input. *)
  | Const of bool
  | Not of int
  | Buf of int
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Nand of int * int
  | Nor of int * int
(** Operand values are indices of earlier gates in the netlist. *)

type t

val build : n_inputs:int -> kind array -> outputs:int array -> t
(** Validates that operand indices only reference earlier gates and that
    input/output indices are in range. Raises [Invalid_argument] otherwise. *)

val n_inputs : t -> int

val n_outputs : t -> int

val gate_count : t -> int
(** Number of fallible gates (inputs and constants excluded). *)

val gates : t -> kind array
(** The netlist, in the order given to {!build}. *)

val outputs : t -> int array
(** Indices of the output gates. *)

val eval : t -> bool array -> bool array
(** Fault-free evaluation. Draws nothing. *)

val eval_faulty : t -> Resoc_des.Rng.t -> p_gate:float -> bool array -> bool array
(** Evaluation in which every fallible gate's output flips independently
    with probability [p_gate]. It consumes the draws of one
    [Rng.bernoulli rng p_gate] per fallible gate, in netlist order, and
    gets the same flips they would give; [bernoulli] draws nothing at
    [p_gate <= 0] or [p_gate >= 1]. *)

val count_correct : t -> Resoc_des.Rng.t -> trials:int -> p_gate:float -> int
(** [count_correct t rng ~trials ~p_gate] runs [trials] random-input trials
    and counts those in which {!eval_faulty} matches {!eval} on every
    output. Each trial consumes [n_inputs] [Rng.bool] draws, then the draws
    of one {!eval_faulty}, so the stream and the count are those of calling
    the two evaluators trial by trial. One pass over the netlist evaluates
    63 trials, one per bit of an int; the Monte Carlo allocates only its
    per-call scratch arrays. *)

(** Library of builders. *)

val majority3 : t
(** 3-input majority voter (4 gates). *)

val majority : int -> t
(** [majority n] for odd [n]: n-input majority. Beyond [n = 3] it counts
    the inputs with ripples of half adders and compares the count with
    [(n+1)/2] (AND/OR/XOR gates only). *)

val xor_tree : int -> t
(** n-input parity. *)

val random_logic : Resoc_des.Rng.t -> n_inputs:int -> n_gates:int -> t
(** Random connected combinational logic with one output; stands in for
    "some functionality" of a given complexity in E9. *)

val replicate_with_voter : t -> int -> t
(** [replicate_with_voter c n] instantiates [n] copies of single-output
    circuit [c] on shared inputs and votes their outputs with [majority n];
    the voter gates are as fallible as the rest (the classic TMR caveat). *)
