(** Vocabulary shared by all replication protocols.

    Endpoint numbering convention: replicas occupy ids [0 .. n-1] and
    clients [n .. n+c-1] on the same transport fabric. Channels are
    authenticated point-to-point (the transport reports true senders), the
    standard BFT assumption; only hybrid-issued certificates (USIG UIs) are
    carried explicitly because their verification is the object of study. *)

module Hash = Resoc_crypto.Hash

type request = { client : int; rid : int; payload : int64 }
(** [rid] is a client-local sequence number; (client, rid) identifies the
    request globally. *)

type reply = { client : int; rid : int; result : int64; replica : int }

val make_request : client:int -> rid:int -> payload:int64 -> request

val request_digest : request -> Hash.t

type batching = { window_cycles : int; max_batch : int; pipeline_depth : int }
(** Shared batching/pipelining knob ([Batcher]): the primary buffers
    requests for up to [window_cycles] (0 = seal as soon as possible),
    seals at most [max_batch] per agreement instance, and keeps at most
    [pipeline_depth] instances in flight (further bounded by the
    checkpoint high watermark when checkpointing is on). A protocol
    config carries [batching : batching option]; [None] (every default)
    builds no batcher, so each request is ordered on arrival as a batch
    of one. Constructors raise [Invalid_argument] unless
    [max_batch >= 1], [window_cycles >= 0] and [pipeline_depth >= 1]. *)

val batch_digest : request list -> Hash.t
(** Digest covering an ordered batch of requests (order-sensitive fold);
    what every agreement instance agrees on (a lone request is a batch
    of one). *)

val pp_request : Format.formatter -> request -> unit
val pp_reply : Format.formatter -> reply -> unit
