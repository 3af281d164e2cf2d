(** Multi-Paxos-style crash-tolerant state machine replication.

    The benign baseline (2f+1 replicas, f crash faults): a stable leader
    sequences requests, acceptors acknowledge, the leader commits on a
    majority and everyone executes in order. Leader failure is detected by
    per-request timeouts and repaired by a term change (round-robin leader).
    No Byzantine defence — a corrupt leader order is accepted blindly, which
    is exactly the contrast with {!Pbft}/{!Minbft} that E4 quantifies. *)

module Behavior = Resoc_fault.Behavior

type msg =
  | Request of Types.request
  | Accept_b of { term : int; seq : int; requests : Types.request list }
      (** The only ordering message: the list shares one slot and one ack
          round; agreement keys on [Types.batch_digest requests]. Without
          a batcher every request is ordered as a batch of one. The [_b]
          suffix is kept because code outside this library matches the
          constructor by name. *)
  | Accepted of { term : int; seq : int }
  | Commit of { term : int; seq : int }
  | Reply of Types.reply
  | Term_change of { new_term : int; last_exec : int }
  | New_term of { term : int; start_seq : int; state : int64; rid_table : (int * (int * int64)) list }
  | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
  | Fetch_state of { have : int }
  | State_chunk of Checkpoint.chunk

type config = {
  f : int;
  n_clients : int;
  request_timeout : int;
  election_timeout : int;
  checkpoint : Checkpoint.config option;
      (** Certified checkpointing + state transfer with a majority (f+1)
          quorum — in the crash model any single signer is trusted, but
          a majority certificate additionally proves the boundary is
          durable across every reachable quorum. [None] (the default)
          keeps the legacy fixed-retention / free-state-copy model. *)
  multicast : bool;
      (** Route replica fan-outs through the fabric's multicast (one
          injection forking in the network) when it offers one; off
          (the default) = per-destination unicast. *)
  batching : Types.batching option;
      (** Leader-side request batching + agreement pipelining
          ({!Batcher}); [None] (the default) builds no batcher, so every
          request is ordered at once as a batch of one. *)
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

val term : t -> replica:int -> int

val replica_state : t -> replica:int -> int64

val set_replica_state : t -> replica:int -> int64 -> unit
(** Out-of-band state installation (epoch-based protocol switching). *)

val set_offline : t -> replica:int -> unit

val set_online : t -> replica:int -> unit
(** Rejoin after rejuvenation. With checkpointing enabled the replica
    restarts wiped and fetches the latest certified checkpoint plus log
    suffix from its peers; without it, legacy behaviour: a free state
    copy from the most advanced online replica. *)
