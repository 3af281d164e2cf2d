(** Hybrid-anchored BFT-SMR, generic over the trusted certificate mechanism.

    MinBFT (USIG counters) and A2M-PBFT-EA-style replication (attested
    append-only logs) share their entire agreement structure: 2f+1 replicas,
    a primary that binds each request to the next value of a
    non-equivocatable sequence, commits carrying the committer's own
    certificate, execution on f+1 matching commit votes, and exact
    per-sender continuity checking. This functor captures that structure
    once; {!Minbft} and {!A2m_bft} instantiate it.

    See {!Minbft} for the protocol walk-through and the simplification
    notes (view change / state transfer, documented in DESIGN.md). *)

module Hash = Resoc_crypto.Hash
module Mac = Resoc_crypto.Mac
module Behavior = Resoc_fault.Behavior
module Register = Resoc_hw.Register

(** What the trusted component must provide. *)
module type HYBRID = sig
  type t
  (** A replica's trusted-component instance. *)

  type cert
  (** A certificate binding (signer, counter, digest). *)

  val module_name : string
  (** The instantiating module's name, for [Invalid_argument] messages. *)

  val protocol_name : string

  val make : id:int -> key:Mac.key -> protection:Register.protection -> t
  (** [protection] guards the hybrid's internal state where applicable
      (register-based hybrids); log-based hybrids may ignore it. *)

  val create_cert : t -> Hash.t -> (cert, string) result
  (** Bind the next counter value to a digest; [Error] on hybrid
      fail-stop. *)

  val verify_cert : key:Mac.key -> digest:Hash.t -> cert -> bool

  val cert_signer : cert -> int

  val cert_counter : cert -> int64
  (** Strictly increasing by one per [create_cert] on a healthy hybrid. *)

  val current_counter : t -> int64
end

(** The protocol interface every instance exposes. *)
module type S = sig
  type hybrid
  type cert

  type msg =
    | Request of Types.request
    | Prepare of { view : int; requests : Types.request list; cert : cert }
    | Commit of { view : int; requests : Types.request list; primary_cert : cert; cert : cert }
    | Reply of Types.reply
    | Req_view_change of { new_view : int }
    | New_view of {
        view : int;
        base : int64;
        state : int64;
        rid_table : (int * (int * int64)) list;
      }
    | Checkpoint_vote of { seq : int; digest : Resoc_crypto.Hash.t }
    | Fetch_state of { have : int }
    | State_chunk of Checkpoint.chunk

  type config = {
    f : int;  (** Tolerated faults; the group has 2f+1 replicas. *)
    n_clients : int;
    request_timeout : int;
    vc_timeout : int;
    usig_protection : Register.protection;
        (** Named for the flagship instance; guards whatever internal state
            the hybrid keeps. *)
    keychain_master : int64;
    batch_window : int;
        (** 0 (default): order each request immediately. Positive: the
            primary buffers requests for this many cycles (or until
            [max_batch]) on the shared {!Batcher}, with no pipeline bound,
            and certifies the whole batch with ONE certificate — the
            standard BFT throughput lever (ablation A8). *)
    max_batch : int;
    checkpoint : Checkpoint.config option;
        (** Certified checkpointing + state transfer with an f+1 quorum
            (the hybrid prevents equivocation, so f+1 matching votes
            contain at least one from a correct replica — same argument
            that shrinks the commit quorum). [None] (the default) keeps
            the legacy fixed-retention / free-state-copy model. *)
    multicast : bool;
        (** Route replica fan-outs through the fabric's multicast (one
            injection forking in the network) when it offers one; off
            (the default) = per-destination unicast. *)
    batching : Types.batching option;
        (** The cross-protocol batching + pipelining config ({!Batcher}).
            When active it supersedes the legacy [batch_window]/[max_batch]
            fields and additionally bounds in-flight agreement instances by
            [pipeline_depth] and the checkpoint high watermark. [None]
            (the default) keeps the legacy behaviour byte-identical. *)
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
  val view : t -> replica:int -> int
  val replica_state : t -> replica:int -> int64

  val set_replica_state : t -> replica:int -> int64 -> unit
  (** Out-of-band state installation (epoch-based protocol switching). *)

  val hybrid : t -> replica:int -> hybrid
  (** The replica's trusted component, for fault campaigns / inspection. *)

  val cert_gap_drops : t -> int
  (** Messages rejected group-wide because a sender's certificate counter
      jumped — the observable symptom of a desynchronized hybrid. *)

  val replica_online : t -> replica:int -> bool
  val set_offline : t -> replica:int -> unit

  val set_online : t -> replica:int -> unit
  (** Rejoin after rejuvenation. With [config.checkpoint = Some _] the
      replica restarts wiped and fetches the latest certified checkpoint
      plus log suffix over the fabric; otherwise legacy behaviour: a free
      state copy from the most advanced online replica. *)
end

module Make (H : HYBRID) : S with type hybrid = H.t and type cert = H.cert
