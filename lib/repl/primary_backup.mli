(** Passive (primary-backup) replication.

    The cheap end of §II.A's replication spectrum: one primary executes and
    answers immediately, shipping state updates to warm standbys; a
    heartbeat failure detector promotes the next backup when the primary
    dies. Recovery is *not* seamless — the detection window plus promotion
    delay is client-visible downtime, which E4 measures against the active
    protocols. Tolerates crash faults only. *)

module Behavior = Resoc_fault.Behavior

type msg =
  | Request of Types.request
  | Update_b of { epoch : int; seq : int; state : int64; replies : (int * int * int64) list }
      (** The only state update: it carries the post-batch state plus one
          (client, rid, result) reply per request, so backups rebuild the
          primary's reply cache. Without a batcher every request ships as
          a batch of one. The [_b] suffix is kept because code outside
          this library matches the constructor by name. *)
  | Heartbeat of { epoch : int }
  | Promote of { epoch : int }
  | Reply of Types.reply
  | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  n_backups : int;  (** Group size is 1 + n_backups. *)
  n_clients : int;
  request_timeout : int;
  heartbeat_period : int;
  detection_timeout : int;  (** Silence before declaring the primary dead. *)
  checkpoint : Checkpoint.config option;
      (** Certified checkpointing + state transfer. The quorum degenerates
          to 1 (the primary's own vote — in the crash-pair model the
          certificate proves durability, not honesty), and transfers carry
          no log suffix: updates already ship full state, so Meta +
          reply-cache chunks reconstruct a replica. [None] (the default)
          keeps the legacy model, where rejuvenation is invisible to the
          protocol. *)
  multicast : bool;
      (** Route peer fan-outs (updates, heartbeats, promotes, checkpoint
          votes) through the fabric's multicast when it offers one; off
          (the default) = per-destination unicast. *)
  batching : Types.batching option;
      (** Primary-side request batching ({!Batcher}); the primary still
          executes immediately at seal time (no agreement to pipeline —
          the gate is trivially open), so batching here amortizes update
          traffic. [None] (the default) builds no batcher, so every
          request is executed and shipped at once as a batch of one. *)
}

val default_config : config

val n_replicas : config -> int

type t

val start :
  Resoc_des.Engine.t ->
  msg Transport.fabric ->
  config ->
  ?behaviors:Behavior.t array ->
  unit ->
  t

val submit : t -> client:int -> payload:int64 -> unit

val stats : t -> Stats.t

val current_primary : t -> int
(** Highest-epoch active primary (oracle view). *)

val replica_state : t -> replica:int -> int64

val set_replica_state : t -> replica:int -> int64 -> unit
(** Out-of-band state installation (epoch-based protocol switching). *)

val set_offline : t -> replica:int -> unit
(** Tile powered down (e.g. for rejuvenation): drops all traffic. *)

val set_online : t -> replica:int -> unit
(** Rejoin after rejuvenation. With checkpointing enabled the replica
    restarts wiped and fetches the latest certified checkpoint from the
    primary; without it, legacy behaviour: a free state copy from the
    most advanced online replica. *)
