module Hash = Resoc_crypto.Hash

type request = { client : int; rid : int; payload : int64 }

type reply = { client : int; rid : int; result : int64; replica : int }

let make_request ~client ~rid ~payload = { client; rid; payload }

(* The tag hash is a constant; folding it at module init keeps
   [request_digest] — called several times per request across the
   replica group — down to two inlined combines. *)
let request_tag = Hash.of_string "request"

let request_digest r =
  Hash.combine_int (Hash.combine request_tag r.payload) ((r.client * 1_000_003) + r.rid)

(* Config for the shared request-batching / agreement-pipelining layer
   (Batcher). [None] on a protocol config only means no batcher is built:
   each request is ordered on arrival as a batch of one, on the same
   ordering path batches take. A config with [max_batch = 1] and
   [window_cycles = 0] is "armed but inactive" — threaded through every
   constructor yet ordering nothing differently (the determinism gate's
   probe). Batcher.active rejects [max_batch < 1], [window_cycles < 0]
   and [pipeline_depth < 1]. *)
type batching = { window_cycles : int; max_batch : int; pipeline_depth : int }

let batch_tag = Hash.of_string "batch"

(* One digest covers the whole batch, in order; agreement messages carry
   only this, so a batch of k requests still costs one Prepare/Commit
   exchange. Identical to the folding the hybrid protocols always used. *)
let batch_digest requests =
  List.fold_left (fun acc req -> Hash.combine acc (request_digest req)) batch_tag requests

let pp_request ppf (r : request) = Format.fprintf ppf "req(c%d#%d:%Ld)" r.client r.rid r.payload

let pp_reply ppf r = Format.fprintf ppf "reply(c%d#%d=%Ld from r%d)" r.client r.rid r.result r.replica
