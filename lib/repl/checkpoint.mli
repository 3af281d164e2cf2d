(** Checkpoint certificates, watermarks, and chunked certified state
    transfer — shared by all five replication protocols.

    Every [interval] executions a replica digests its application state
    plus reply cache and broadcasts a signed checkpoint vote. When a
    quorum of matching votes accumulates (f+1 for the USIG/TrInc
    hybrids, 2f+1 for PBFT, a majority for the crash-model protocols)
    the boundary becomes the {e stable checkpoint}: the low watermark
    below which the agreement log (and the {!Slot_ring} overflow array)
    is truncated, and the state a wiped replica can fetch with a
    certificate instead of trusting a peer's bare copy. The high
    watermark [low + window * interval] gates execution so no replica
    runs unboundedly ahead of the last proof point.

    Transfer is chunked: a [Meta] chunk carries the certificate and the
    (small, modelled) application state, then [Rids] chunks stream the
    reply cache and [Suffix] chunks stream the executed log suffix
    above the checkpoint, [chunk] entries per message, each a separate
    NoC message whose nominal size feeds the fabric's latency model.
    The receiver recomputes the digest over what actually arrived and
    installs only if it matches the certificate ({!Check.transfer_applied}
    audits exactly this).

    The whole subsystem is config-gated: protocols hold a
    [Checkpoint.t option] that is [None] by default, so runs without
    checkpointing take one branch and stay byte-identical. *)

module Hash = Resoc_crypto.Hash
module Obs = Resoc_obs.Obs

type config = {
  interval : int;  (** Executions between checkpoint boundaries. *)
  window : int;  (** High watermark = low + window * interval. *)
  chunk : int;  (** Reply-cache / log-suffix entries per transfer chunk. *)
}

val default_config : config
(** [{ interval = 128; window = 4; chunk = 8 }]. *)

type cert = {
  cp_seq : int;  (** Checkpoint boundary (sequence number / counter). *)
  cp_digest : Hash.t;  (** Digest of state + reply cache at the boundary. *)
  cp_signers : Quorum.t;  (** Distinct replicas whose votes matched. *)
}

(** One state-transfer message. [Meta] opens the transfer and announces
    how many parts follow; parts from any other source (or outside an
    open transfer) are ignored. *)
type chunk =
  | Meta of { cert : cert; state : int64; view : int; rid_parts : int; suffix_parts : int }
  | Rids of { part : int; entries : (int * int * int64) list }
      (** Reply-cache rows: (client, last rid, last result). *)
  | Suffix of { part : int; entries : (int * Types.request list) list }
      (** Executed log entries above the checkpoint: (seq, batch). *)

val chunk_bytes : chunk -> int
(** Nominal wire size, fed to the NoC fabric's [size_of]. *)

type completion = {
  c_cert : cert;
  c_state : int64;
  c_rids : (int * int * int64) list;
  c_suffix : (int * Types.request list) list;  (** Ascending seq. *)
  c_view : int;  (** Serving replica's view at snapshot time. *)
  c_bytes : int;  (** Total nominal bytes since {!begin_recovery}. *)
  c_chunks : int;
  c_elapsed : int;  (** Cycles from {!begin_recovery} to the last chunk. *)
  c_actual : Hash.t;  (** Digest recomputed over the received state. *)
  c_valid : bool;  (** [c_actual] matches the certificate, quorum holds. *)
}

type t

val create : config -> obs:Obs.t -> quorum:int -> t
(** [quorum] is the certificate threshold (protocol-dependent). Obs
    metrics ([repl.ckpt.stable], [repl.transfer.*]) register here when
    the metrics gate is already on. *)

val low : t -> int
(** Low watermark: the stable checkpoint's boundary, initially 0. *)

val high : t -> int
(** High watermark: [low + window * interval]; execution must not pass it. *)

val digest : seq:int -> state:int64 -> rids:(int * int * int64) list -> Hash.t
(** Canonical checkpoint digest; [rids] must be ascending in client. *)

val snapshot_rids : rid_last:int array -> rid_result:int64 array -> (int * int * int64) list
(** Reply-cache rows with a recorded rid, ascending in client. *)

val note_exec :
  t -> seq:int -> state:int64 -> rid_last:int array -> rid_result:int64 array -> Hash.t option
(** Called after executing [seq]. At a boundary above the low watermark
    this snapshots state + reply cache into a pending slot and returns
    the digest the caller must broadcast (and vote for itself via
    {!note_vote}); [None] elsewhere. *)

val note_vote : t -> seq:int -> digest:Hash.t -> voter:int -> int
(** Record a checkpoint vote. Returns the {e previous} low watermark
    when this vote completed a certificate and advanced stability (the
    caller then releases log entries in (previous, new low]), or [-1].
    Votes that disagree with this replica's own digest are not counted;
    votes arriving before the replica executed the boundary are
    buffered against the first digest seen. *)

val needs_catchup : t -> bool
(** A certificate formed on a boundary this replica never executed: it
    has fallen behind the group and should recover by state transfer
    ({!begin_recovery} clears the flag). *)

val force_stable :
  t ->
  seq:int ->
  state:int64 ->
  rid_last:int array ->
  rid_result:int64 array ->
  voter:int ->
  unit
(** Crash-model self-stabilization: adopt this replica's own snapshot at
    [seq] as the stable checkpoint under a single-signer certificate,
    advancing the low watermark to [seq]. Primary-backup serves fetches
    from its execution tip this way — its Update stream carries full
    state but no replayable log, so serving the last periodic boundary
    would make a recovering primary re-issue sequence numbers the
    backups already executed. No-op when [seq] is at or below the
    current low watermark. Byzantine-quorum protocols must never call
    this: a single signer proves nothing there. *)

val serve :
  t ->
  view:int ->
  have:int ->
  suffix:(int * Types.request list) list ->
  chunk list option
(** Chunk the stable checkpoint for a replica whose low watermark is
    [have]: [None] when there is nothing newer to offer (or this
    replica is itself recovering). [suffix] is the caller's executed
    log above the checkpoint, ascending and gapless. *)

val begin_recovery : t -> now:int -> unit
(** Start (or restart) fetching: the next [Meta] chunk from any source
    opens an assembly. Resets the byte/chunk/latency accounting. *)

val recovering : t -> bool

val feed : t -> src:int -> now:int -> chunk -> completion option
(** Accept one transfer chunk while recovering. Returns the assembled
    completion when the last expected part arrives — the caller checks
    [c_valid], reports {!Check.transfer_applied}, and either
    {!install}s or re-issues the fetch. A finished assembly (valid or
    not) is discarded from [t] either way, so a retry starts clean. *)

val install : t -> completion -> unit
(** Adopt the transferred checkpoint as the stable one: low watermark
    jumps to [c_cert.cp_seq], recovery ends, obs transfer metrics are
    recorded. The caller installs app state / reply cache / log suffix
    itself. *)

val rebase : t -> seq:int -> unit
(** View change adopted a new baseline at [seq]: drop the stable
    snapshot and every pending tally, move the low watermark, and end
    any in-flight recovery (the view change delivered fresher state
    than the transfer would). *)

val reset : t -> unit
(** Wipe to the initial state (rejuvenation erases the replica). *)

val test_ignore_watermarks : bool ref
(** Test-only mutation knob: protocols skip the high-watermark
    execution gate, so {!Check.exec_window} must fire. *)

val test_unverified_transfer : bool ref
(** Test-only mutation knob: {!serve} corrupts the state it ships and
    receivers install completions without checking [c_valid], so
    {!Check.transfer_applied} must fire. *)
