(** Generic closed-loop protocol client.

    Broadcasts each request to all replicas (backups forward to the
    primary), retries on timeout, and accepts a result once [quorum]
    distinct replicas reported the same value for the current request —
    f+1 for BFT protocols, 1 for crash-tolerant ones. A replica's
    repeated reply replaces its earlier result; replies naming a replica
    outside [0, n_replicas) are ignored. One request is outstanding at a
    time; further submissions queue. *)

type 'msg t

val create :
  Resoc_des.Engine.t ->
  'msg Transport.fabric ->
  id:int ->
  n_replicas:int ->
  quorum:int ->
  retry_timeout:int ->
  stats:Stats.t ->
  to_msg:(Types.request -> 'msg) ->
  of_msg:('msg -> Types.reply option) ->
  ?on_complete:(Types.reply -> unit) ->
  unit ->
  'msg t
(** Registers the client's handler at endpoint [id] on the fabric. *)

val submit : 'msg t -> payload:int64 -> unit

val id : 'msg t -> int

val outstanding : 'msg t -> bool

val queued : 'msg t -> int

val shutdown : 'msg t -> unit
(** Cancel timers; pending requests are abandoned (end of experiment). *)
