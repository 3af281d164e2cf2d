(** The replica plumbing the five protocols share.

    Each protocol's replica embeds one ['msg t] and keeps only its own
    agreement logic, log entries and message decoding. The core owns the
    behaviour-gated [send]/[broadcast] (with the multicast resolution),
    the corrupt-aware client reply, the reply cache, the per-request
    execution tail and request timers, checkpoint recovery and transfer
    installation, and group assembly. It also owns the view-change state
    machine: the view (PBFT's view, Paxos's term, primary-backup's
    epoch) and its primary, the replica's highest vote, the vote tally,
    the expiry vote, the join and install rules, the new-view guard, and
    the rejoin after rejuvenation (certified transfer after a wipe, a
    peer copy without checkpoints). Where the protocols differ, the
    difference is a [spec] field or one of the protocol's [hooks]. *)

module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs

(** The protocol's constructors for the messages the core sends or reads. *)
type 'msg kit = {
  request : Types.request -> 'msg;
  reply : Types.reply -> 'msg;
  reply_of : 'msg -> Types.reply option;
  checkpoint_vote : int -> Hash.t -> 'msg;  (** seq, digest *)
  fetch_state : int -> 'msg;  (** the asker's low watermark *)
  state_chunk : Checkpoint.chunk -> 'msg;
}

type spec = {
  label : string;  (** Module name in [Invalid_argument] messages. *)
  protocol : string;  (** Checker session name. *)
  n : int;
  n_clients : int;
  client_quorum : int;
      (** Matching replies a client waits for; also the view-change votes
          that make a replica join (one honest voter). *)
  request_timeout : int;  (** Client retry and recovery re-fetch cadence. *)
  watch_delay : int;  (** Request timer: view-change / election patience. *)
  checkpoint : Checkpoint.config option;
  cp_quorum : int;
      (** Checkpoint certificate threshold; also the view-change votes that
          let the new view's primary take over. *)
  multicast : bool;
  spans : bool;  (** Trace a span per request from admission to execution. *)
  count_views : bool;  (** [repl.view_changes] counter and trace instant. *)
}

type 'msg t = {
  id : int;
  n : int;
  engine : Engine.t;
  fabric : 'msg Transport.fabric;
  kit : 'msg kit;
  behavior : Behavior.t;
  app : App.t;
  stats : Stats.t;  (** Shared by the whole group. *)
  obs : Obs.t;
  obs_vc : int;
  chk : int;  (** resoc_check session, -1 when checking is off. *)
  spans : bool;
  count_views : bool;
  mutable online : bool;
  mutable view : int;  (** PBFT view, Paxos term, primary-backup epoch. *)
  mutable voted : int;  (** Highest view this replica voted for. *)
  rounds : Quorum.Rounds.t;  (** view -> voter -> the voter's executed frontier *)
  client_quorum : int;
  cp_quorum : int;
  hooks : 'msg hooks Lazy.t;  (** Built around the protocol replica, after the core. *)
  mutable group : 'msg t array;  (** Every core of the group, this one included. *)
  all_ids : int array;  (** 0 .. n-1 *)
  peer_ids : int array;  (** 0 .. n-1 minus self *)
  mcast : (src:int -> dsts:int array -> n:int -> 'msg -> unit) option;
      (** Fabric multicast, resolved once; [None] = per-destination sends. *)
  pending : (Hash.t, Types.request) Hashtbl.t;  (** Seen, not yet executed. *)
  timers : Engine.handle Digest_map.t;  (** Request timers by digest. *)
  watch_delay : int;
  mutable rid_last : int array;  (** client -> last rid, [min_int] = none *)
  mutable rid_result : int64 array;  (** client -> cached result *)
  cp : Checkpoint.t option;  (** [None] = checkpointing off (default). *)
  recover_delay : int;
  mutable recover_timer : Engine.handle option;  (** Fetch_state retry. *)
  mutable batcher : Batcher.t option;
}

(** What the view-change state machine asks of the protocol. *)
and 'msg hooks = {
  vote : int -> 'msg;  (** The vote for a view, carrying this replica's frontier. *)
  take_over : view:int -> max_exec:int -> unit;
      (** Enough votes made this replica the primary of [view]; [max_exec]
          is the highest frontier any voter reported. *)
  progress : unit -> int64;
      (** The executed frontier; an [int64] so that the hybrids' trusted
          counters survive the legacy peer copy exactly. *)
  wipe : unit -> unit;  (** Rejuvenation wiped the replica: reset the protocol's own state. *)
  adopt_peer : progress:int64 -> unit;
      (** Legacy rejoin: the core copied a peer's state, reply cache and
          view; take over its frontier. *)
}

val create_log : (int -> 'e) -> 'e Slot_ring.t
(** A slot ring sized for [log_retention]. *)

val faulty : 'msg t -> bool

val primary : 'msg t -> int -> int
(** The primary of a view: [view mod n]. *)

val is_primary : 'msg t -> bool

val live : 'msg t -> bool
(** Online and not crashed: the replica handles messages. *)

(** {2 Sending} *)

val send : 'msg t -> dst:int -> 'msg -> unit
(** Honours the behaviour: offline, crashed and Silent replicas are mute,
    Delay holds the message back. *)

val broadcast : 'msg t -> to_:int array -> 'msg -> unit
(** One multicast injection when the replica has one, else [send] per
    destination. *)

val equivocating : 'msg t -> bool

val reply : 'msg t -> client:int -> rid:int -> int64 -> unit
(** Reply to a client; a Corrupt_execution replica garbles the result. *)

(** {2 Reply cache} *)

val rid_slot : 'msg t -> int -> int
(** The cache index of a client, growing the cache on demand. *)

val executed : 'msg t -> Types.request -> bool
val reply_cached : 'msg t -> Types.request -> unit
val record : 'msg t -> client:int -> rid:int -> int64 -> unit

val apply : 'msg t -> Types.request -> int64
(** Execute exactly once: a cached request returns its cached result. *)

val rid_table : 'msg t -> (int * (int * int64)) list
val import_rid_table : 'msg t -> (int * (int * int64)) list -> unit

(** {2 Pending requests and request timers} *)

val cancel_timer : 'msg t -> Hash.t -> unit

val watch : 'msg t -> Hash.t -> unit
(** Arm the request timer for a digest unless one is running. *)

val admit : 'msg t -> Types.request -> Hash.t -> bool
(** Mark a request pending (opening its trace span); returns whether it
    already was. *)

val pending_sorted : 'msg t -> Types.request list
(** Pending requests in (client, rid) order. *)

val execute : 'msg t -> Types.request -> unit
(** The per-request execution tail: [apply], retire the pending entry
    and its timer, close the span, reply. *)

val view_changed : 'msg t -> view:int -> unit
(** Count a view change and trace it. *)

(** {2 View changes} *)

val vote : 'msg t -> view:int -> unit
(** Broadcast a vote for [view] unless this replica already voted that
    high. Request timers call it with [max view voted + 1]. *)

val on_vote : 'msg t -> src:int -> view:int -> value:int -> unit
(** Tally a vote for a higher [view] carrying the voter's frontier:
    join at [client_quorum] votes, take over at [cp_quorum] when this replica
    is the view's primary. *)

val accepts_new_view : 'msg t -> src:int -> view:int -> bool
(** A new view is adopted only from its primary, and only forward. *)

(** {2 Checker hooks} *)

val check_window : 'msg t -> seq:int -> unit
val check_batch : 'msg t -> view:int -> seq:int -> Types.request list -> unit

(** {2 Batching} *)

val below_high : 'msg t -> int -> bool
(** The sequence number is within the checkpoint high watermark. *)

val attach_batcher :
  'msg t ->
  Types.batching option ->
  seal:(Types.request list -> unit) ->
  in_flight:(unit -> int) ->
  frontier:(unit -> int) ->
  unit
(** Build the batcher for an active config, gated to [pipeline_depth]
    instances in flight above the execution [frontier] and to the high
    watermark. *)

val kick : 'msg t -> unit

(** {2 Checkpoints and certified state transfer} *)

val after_exec : 'msg t -> 'e Slot_ring.t -> seq:int -> voters:int array -> int
(** Log upkeep after executing [seq]: retention pruning without
    checkpoints, else the boundary vote. Returns the previous low
    watermark when a certificate completed, else -1. *)

val stabilized : 'msg t -> 'e Slot_ring.t -> prev:int -> unit
(** The low watermark moved up from [prev]: truncate the log below it. *)

val maybe_catchup : 'msg t -> Checkpoint.t -> unit
(** Fetch the latest certified checkpoint when a certificate formed on a
    boundary this replica never executed; re-asks until a transfer
    installs. *)

val log_suffix :
  'e Slot_ring.t -> from:int -> upto:int -> batch:('e -> Types.request list) ->
  (int * Types.request list) list
(** Executed entries in (from, upto], stopping at the first whose [batch]
    is empty. *)

val serve :
  'msg t -> Checkpoint.t -> src:int -> have:int -> view:int ->
  suffix:(int * Types.request list) list -> unit

val on_state_chunk :
  'msg t -> src:int -> last_exec:int -> Checkpoint.chunk ->
  install:(Checkpoint.completion -> unit) -> unit
(** Feed one transfer chunk. A completed transfer is reported to the
    checker and passed to [install] iff it verifies and lies past
    [last_exec]. *)

val install : ?log:'e Slot_ring.t -> 'msg t -> Checkpoint.completion -> int
(** The shared half of installing a transfer: view and vote moved up to
    the serving view, state, reply cache, log suffix replayed without
    replies, log truncated, stats. Returns the new execution frontier;
    the caller adopts its sequence state. *)

(** {2 New views, churn and assembly} *)

val adopt :
  'msg t -> view:int -> state:int64 -> rid_table:(int * (int * int64)) list -> seq:int -> unit
(** A new view's baseline: view and vote moved to [view], batcher
    emptied, state and reply cache adopted, watermarks rebased at [seq],
    pending requests re-timed. *)

val set_offline : 'msg t -> unit

val set_online : 'msg t -> unit
(** Back from rejuvenation. With checkpoints: view, vote, state, reply
    cache and pending requests cleared, the protocol's [wipe], then a
    rejoin by certified transfer. Without: state, reply cache and view
    copied from the online peer with the most [progress] (the first on
    ties), pending requests forgotten, the protocol's [adopt_peer]. *)

val start :
  Engine.t -> 'msg Transport.fabric -> 'msg kit -> spec -> ?behaviors:Behavior.t array ->
  hooks:('r -> 'msg hooks) -> ('msg t -> 'r) -> 'r array * Stats.t
(** Validate the replica count, behaviours and fabric size, open the
    checker session, and build every replica around a fresh core. *)

val clients : Engine.t -> 'msg Transport.fabric -> 'msg kit -> spec -> stats:Stats.t -> 'msg Client.t array

val submit : string -> 'msg Client.t array -> client:int -> payload:int64 -> unit
