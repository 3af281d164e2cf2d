module Mac = Resoc_crypto.Mac
module Hash = Resoc_crypto.Hash
module Check = Resoc_check.Check

type entry = { digest : Hash.t; chain : Hash.t }

type t = {
  id : int;
  key : Mac.key;
  mutable log : entry list;  (* newest first *)
  mutable n : int;
  chk : int;  (* resoc_check hybrid id, -1 when checking is off *)
}

type attestation = { signer : int; seq : int64; entry : Hash.t; chain : Hash.t; tag : Mac.t }

let create ~id ~key =
  { id; key; log = []; n = 0; chk = (if !Check.enabled then Check.new_hybrid ~name:"a2m" else -1) }

let id t = t.id

let signer_prefix = Hash.memo_signers (Hash.combine_int (Hash.of_string "a2m"))

let attestation_digest ~signer ~seq ~entry ~chain =
  Hash.combine (signer_prefix signer) (Hash.combine seq (Hash.combine entry chain))

let make_attestation t ~seq ~entry ~chain =
  let tag = Mac.sign t.key (attestation_digest ~signer:t.id ~seq ~entry ~chain) in
  { signer = t.id; seq; entry; chain; tag }

let append t digest =
  let prev_chain = match t.log with [] -> Hash.zero | e :: _ -> e.chain in
  let chain = Hash.chain prev_chain digest in
  t.log <- { digest; chain } :: t.log;
  t.n <- t.n + 1;
  if t.chk >= 0 then Check.a2m_append ~hybrid:t.chk ~seq:(Int64.of_int t.n) ~digest;
  make_attestation t ~seq:(Int64.of_int t.n) ~entry:digest ~chain

let nth_entry t seq =
  (* seq is 1-based from the oldest; the list is newest-first. *)
  let idx_from_newest = t.n - seq in
  if seq < 1 || idx_from_newest < 0 then None else List.nth_opt t.log idx_from_newest

let lookup t ~seq =
  let seq_int = Int64.to_int seq in
  match nth_entry t seq_int with
  | None -> None
  | Some e -> Some (make_attestation t ~seq ~entry:e.digest ~chain:e.chain)

let latest t =
  match t.log with
  | [] -> None
  | e :: _ -> Some (make_attestation t ~seq:(Int64.of_int t.n) ~entry:e.digest ~chain:e.chain)

let size t = t.n

let verify ~key a =
  Mac.verify key (attestation_digest ~signer:a.signer ~seq:a.seq ~entry:a.entry ~chain:a.chain) a.tag

let consistent ~earlier ~later ~prefix =
  if earlier.signer <> later.signer then false
  else if Int64.compare earlier.seq later.seq >= 0 then false
  else if Int64.to_int (Int64.sub later.seq earlier.seq) <> List.length prefix then false
  else begin
    let chain = List.fold_left Hash.chain earlier.chain prefix in
    Hash.equal chain later.chain
    &&
    match List.rev prefix with
    | last :: _ -> Hash.equal last later.entry
    | [] -> false
  end
