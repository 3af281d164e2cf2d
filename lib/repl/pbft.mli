(** PBFT-style Byzantine fault-tolerant state machine replication.

    The 3f+1 baseline of experiment E3 (Castro & Liskov's message pattern):
    request → pre-prepare → prepare (2f+1 votes) → commit (2f+1 votes) →
    execute → reply, with view changes on request timeout. Replicas may be
    given crash or Byzantine behaviours ({!Resoc_fault.Behavior}); an
    equivocating primary sends conflicting pre-prepares and is evicted by a
    view change.

    With [config.checkpoint = Some _] the group runs real checkpointing
    (DESIGN.md §8): every interval executions each replica digests its
    state and votes; 2f+1 matching votes form a stable-checkpoint
    certificate that advances the low watermark, truncates the log, and
    becomes the state a wiped replica fetches — chunked and
    certificate-verified — when it rejoins after rejuvenation. With the
    default [checkpoint = None] the protocol behaves exactly as before:
    fixed-retention log pruning, and {!set_online} hands the rejoiner a
    free copy of a peer's state.

    Remaining simplifications vs. the full protocol, chosen to preserve
    the metrics this library studies (quorum sizes, message complexity,
    fault reaction time) — see DESIGN.md: NEW-VIEW still carries full
    state for the view-change handoff itself, and the new primary
    restarts sequencing above the highest execution reported in its
    view-change quorum. *)

module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior

type msg =
  | Request of Types.request
  | Pre_prepare_b of { view : int; seq : int; digest : Hash.t; requests : Types.request list }
      (** The only ordering message: one agreement instance covers the
          whole list, [digest = Types.batch_digest requests]. Without a
          batcher every request is ordered as a batch of one. The [_b]
          suffix is kept because code outside this library matches the
          constructor by name. *)
  | Prepare of { view : int; seq : int; digest : Hash.t }
  | Commit of { view : int; seq : int; digest : Hash.t }
  | Reply of Types.reply
  | View_change of { new_view : int; last_exec : int }
  | New_view of { view : int; start_seq : int; state : int64; rid_table : (int * (int * int64)) list }
  | Checkpoint_vote of { seq : int; digest : Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;  (** Tolerated faults; the group has 3f+1 replicas. *)
  n_clients : int;
  request_timeout : int;  (** Client retransmission period. *)
  vc_timeout : int;  (** Replica view-change trigger. *)
  checkpoint : Checkpoint.config option;
      (** Certified checkpointing + state transfer; [None] (the default)
          keeps the legacy fixed-retention / free-state-copy model. *)
  multicast : bool;
      (** Route replica fan-outs through the fabric's multicast (one
          injection forking in the network) when it offers one; off =
          per-destination unicast. *)
  batching : Types.batching option;
      (** Primary-side request batching + agreement pipelining
          ({!Batcher}); [None] (the default) builds no batcher, so every
          request is ordered at once as a batch of one. *)
}

val default_config : config
(** f=1, 2 clients, timeouts 4000/2500 cycles, checkpointing off,
    multicast off, batching off. *)

val n_replicas : config -> int

type t
(** A complete group: replicas plus clients on one fabric. *)

val start :
  Resoc_des.Engine.t ->
  msg Transport.fabric ->
  config ->
  ?behaviors:Behavior.t array ->
  unit ->
  t
(** The fabric must have [n_replicas config + config.n_clients] endpoints.
    [behaviors] defaults to all-honest. Replicas run the accumulator app. *)

val submit : t -> client:int -> payload:int64 -> unit
(** [client] is an index in [0 .. n_clients-1]. *)

val stats : t -> Stats.t

val view : t -> replica:int -> int

val replica_state : t -> replica:int -> int64

val set_replica_state : t -> replica:int -> int64 -> unit
(** Out-of-band state installation (epoch-based protocol switching). *)

val set_offline : t -> replica:int -> unit
(** Tile powered down (e.g. for rejuvenation): drops all traffic. *)

val set_online : t -> replica:int -> unit
(** Rejoin after rejuvenation. With checkpointing enabled the replica
    restarts {e wiped} and fetches the latest certified checkpoint plus
    log suffix from its peers over the fabric (chunked, digest-verified
    against the certificate); without it, legacy behaviour: a free state
    copy from the most advanced online replica. *)
