(** CheapBFT-style resource-efficient BFT (Kapitza et al., refs [40]/[59]).

    The third hybrid-anchored design point: in the fault-free case only
    **f+1 active** replicas execute requests (certified by TrInc trusted
    counters, {!Resoc_hybrid.Trinc}), while **f passive** replicas merely
    apply attested state updates — saving both execution and agreement
    cost. Any suspicion (a request timing out) triggers a *transition* that
    activates the passive replicas and continues as a full 2f+1 group with
    f+1 quorums (MinBFT-equivalent), evicting the primary if needed.

    Agreement among the actives is the hybrids' path,
    {!Hybrid_bft.Agreement} over a TrInc certificate (an attestation
    whose counter is exactly the previous one plus one): commits go to
    the active replicas (the log's [voters]) and only actives accept
    prepares and commits (its [serves]). What stays here is the passive
    set's [Update] shipping, the PANIC repeat count, and the request path
    on which every replica watches a request.

    Simplifications (documented in DESIGN.md): once transitioned, the group
    stays in the all-active configuration (no switch-back), and the
    transition reuses the same simplified state transfer as the other
    protocols. *)

module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register
module Trinc = Resoc_hybrid.Trinc

type msg =
  | Request of Types.request
  | Prepare_b of { view : int; requests : Types.request list; cert : Trinc.attestation }
      (** The only ordering message: one attestation — and one TrInc
          counter step — covers the whole list; [cert] binds
          [Types.batch_digest requests]. Without a batcher every request
          is ordered as a batch of one. The [_b] suffix (here and on
          [Commit_b]) is kept because code outside this library matches
          the constructors by name. *)
  | Commit_b of {
      view : int;
      requests : Types.request list;
      primary_cert : Trinc.attestation;
      cert : Trinc.attestation;
    }
  | Update of { view : int; upto : int64; state : int64; rid_table : (int * (int * int64)) list }
      (** Attested state shipping to passive replicas. *)
  | Activate of { new_view : int }
      (** Transition vote: activate the passive set / rotate the primary. *)
  | New_view of { view : int; base : int64; state : int64; rid_table : (int * (int * int64)) list }
  | Reply of Types.reply
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;  (** The group has 2f+1 replicas, f+1 of them initially active. *)
  n_clients : int;
  request_timeout : int;
  vc_timeout : int;
  update_period : int;  (** How often actives ship state to passives. *)
  trinc_protection : Register.protection;
  keychain_master : int64;
  checkpoint : Checkpoint.config option;
      (** Certified checkpointing + state transfer among the {e active}
          replicas (f+1 matching votes — the executing set; passives
          neither vote nor serve). [None] (the default) keeps the legacy
          fixed-retention model, where rejuvenation is invisible to the
          protocol. *)
  multicast : bool;
      (** Route replica fan-outs through the fabric's multicast (one
          injection forking in the network) when it offers one; off
          (the default) = per-destination unicast. *)
  batching : Types.batching option;
      (** Primary-side request batching + agreement pipelining
          ({!Batcher}); [None] (the default) builds no batcher, so every
          request is ordered at once as a batch of one. *)
}

val default_config : config

val n_replicas : config -> int
val n_active_initial : config -> int

type t

val start :
  Resoc_des.Engine.t -> msg Transport.fabric -> config -> ?behaviors:Behavior.t array ->
  unit -> t

val submit : t -> client:int -> payload:int64 -> unit
val stats : t -> Stats.t

val view : t -> replica:int -> int
val replica_state : t -> replica:int -> int64

val active : t -> replica:int -> bool
val transitioned : t -> bool
(** Whether the passive set has been activated. *)

val trinc : t -> replica:int -> Trinc.t

val set_offline : t -> replica:int -> unit
(** Tile powered down (e.g. for rejuvenation): drops all traffic. *)

val set_online : t -> replica:int -> unit
(** Rejoin after rejuvenation. With checkpointing enabled the replica
    restarts wiped (only its TrInc counter, being trusted hardware,
    survives) and fetches the latest certified checkpoint plus log
    suffix from the active replicas; without it, legacy behaviour: a
    free state copy from the most advanced online replica. *)
