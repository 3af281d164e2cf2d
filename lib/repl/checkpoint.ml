module Hash = Resoc_crypto.Hash
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry

type config = { interval : int; window : int; chunk : int }

let default_config = { interval = 128; window = 4; chunk = 8 }

type cert = { cp_seq : int; cp_digest : Hash.t; cp_signers : Quorum.t }

type chunk =
  | Meta of { cert : cert; state : int64; view : int; rid_parts : int; suffix_parts : int }
  | Rids of { part : int; entries : (int * int * int64) list }
  | Suffix of { part : int; entries : (int * Types.request list) list }

(* Nominal wire sizes: the certificate + state header is a small fixed
   record; reply-cache rows are (client, rid, result) triples; suffix
   entries pay a per-seq header plus each request's (client, rid,
   payload). These feed the fabric's [size_of], so transfer traffic
   contends with agreement traffic in the NoC latency model. *)
let chunk_bytes = function
  | Meta _ -> 56
  | Rids { entries; _ } -> 16 + (24 * List.length entries)
  | Suffix { entries; _ } ->
    16 + List.fold_left (fun acc (_, reqs) -> acc + 8 + (24 * List.length reqs)) 0 entries

type completion = {
  c_cert : cert;
  c_state : int64;
  c_rids : (int * int * int64) list;
  c_suffix : (int * Types.request list) list;
  c_view : int;
  c_bytes : int;
  c_chunks : int;
  c_elapsed : int;
  c_actual : Hash.t;
  c_valid : bool;
}

(* One in-flight boundary tally. Votes can arrive before this replica
   executes the boundary itself, so the first digest seen anchors the
   tally; if our own execution later disagrees, the tally restarts on
   our digest (an honest quorum will match it). *)
type pending = {
  mutable p_seq : int;  (* min_int = free slot *)
  mutable p_known : bool;  (* p_digest is meaningful *)
  mutable p_digest : Hash.t;
  mutable p_have_own : bool;  (* we executed the boundary: snapshot below is real *)
  mutable p_state : int64;
  mutable p_rids : (int * int * int64) list;
  mutable p_votes : Quorum.t;
}

let null_cert = { cp_seq = 0; cp_digest = Hash.zero; cp_signers = Quorum.empty }

type t = {
  cfg : config;
  quorum : int;
  obs : Obs.t;
  o_stable : int;
  o_transfer : int;
  o_bytes : int;
  o_chunks : int;
  o_cycles : Registry.histogram;
  pending : pending array;
  mutable low : int;
  mutable stable : (cert * int64 * (int * int * int64) list) option;
  mutable catchup : bool;
  (* transfer assembly (receiver side) *)
  mutable recovering : bool;
  mutable r_src : int;  (* -1 = no open assembly *)
  mutable r_cert : cert;
  mutable r_state : int64;
  mutable r_view : int;
  mutable r_rid_parts : (int * int * int64) list option array;
  mutable r_suffix_parts : (int * Types.request list) list option array;
  mutable r_started : int;
  mutable r_bytes : int;
  mutable r_chunks : int;
}

let test_ignore_watermarks = ref false
let test_unverified_transfer = ref false

let create cfg ~obs ~quorum =
  if cfg.interval <= 0 || cfg.window <= 0 || cfg.chunk <= 0 then
    invalid_arg "Checkpoint.create: interval, window and chunk must be positive";
  let o_stable, o_transfer, o_bytes, o_chunks, o_cycles =
    if !Obs.metrics_on then
      ( Registry.counter obs.Obs.metrics "repl.ckpt.stable",
        Registry.counter obs.Obs.metrics "repl.transfer.completed",
        Registry.counter obs.Obs.metrics "repl.transfer.bytes",
        Registry.counter obs.Obs.metrics "repl.transfer.chunks",
        Registry.histogram obs.Obs.metrics "repl.transfer.cycles"
          ~bounds:[| 100; 300; 1_000; 3_000; 10_000; 30_000 |] )
    else (0, 0, 0, 0, Registry.null_histogram)
  in
  {
    cfg;
    quorum;
    obs;
    o_stable;
    o_transfer;
    o_bytes;
    o_chunks;
    o_cycles;
    pending =
      Array.init
        (2 * cfg.window)
        (fun _ ->
          {
            p_seq = min_int;
            p_known = false;
            p_digest = Hash.zero;
            p_have_own = false;
            p_state = 0L;
            p_rids = [];
            p_votes = Quorum.empty;
          });
    low = 0;
    stable = None;
    catchup = false;
    recovering = false;
    r_src = -1;
    r_cert = null_cert;
    r_state = 0L;
    r_view = 0;
    r_rid_parts = [||];
    r_suffix_parts = [||];
    r_started = 0;
    r_bytes = 0;
    r_chunks = 0;
  }

let low t = t.low
let high t = t.low + (t.cfg.window * t.cfg.interval)
let is_boundary t seq = seq > 0 && seq mod t.cfg.interval = 0

let digest_tag = Hash.of_string "resoc-ckpt"

let digest ~seq ~state ~rids =
  let h = Hash.combine_int (Hash.combine digest_tag state) seq in
  List.fold_left
    (fun h (client, rid, result) ->
      Hash.combine (Hash.combine_int h ((client * 1_000_003) + rid)) result)
    h rids

let snapshot_rids ~rid_last ~rid_result =
  let acc = ref [] in
  for client = Array.length rid_last - 1 downto 0 do
    if rid_last.(client) <> min_int then
      acc := (client, rid_last.(client), rid_result.(client)) :: !acc
  done;
  !acc

(* The pending tally for [seq], claiming a free slot on first touch.
   [None] when every slot is live — boundaries stay within the (small)
   watermark window, so 2*window slots only run out under corrupted
   traffic, which is safe to drop. *)
let slot_for t seq =
  let n = Array.length t.pending in
  let found = ref (-1) in
  let free = ref (-1) in
  for i = 0 to n - 1 do
    let p = t.pending.(i) in
    if p.p_seq = seq then found := i else if !free < 0 && p.p_seq = min_int then free := i
  done;
  if !found >= 0 then Some t.pending.(!found)
  else if !free >= 0 then begin
    let p = t.pending.(!free) in
    p.p_seq <- seq;
    p.p_known <- false;
    p.p_digest <- Hash.zero;
    p.p_have_own <- false;
    p.p_state <- 0L;
    p.p_rids <- [];
    p.p_votes <- Quorum.empty;
    Some p
  end
  else None

let note_exec t ~seq ~state ~rid_last ~rid_result =
  if (not (is_boundary t seq)) || seq <= t.low then None
  else
    match slot_for t seq with
    | None -> None
    | Some p ->
      let rids = snapshot_rids ~rid_last ~rid_result in
      let d = digest ~seq ~state ~rids in
      if p.p_known && not (Hash.equal p.p_digest d) then
        (* Optimistically buffered votes disagreed with what we actually
           executed; restart the tally on our own digest. *)
        p.p_votes <- Quorum.empty;
      p.p_known <- true;
      p.p_digest <- d;
      p.p_have_own <- true;
      p.p_state <- state;
      p.p_rids <- rids;
      Some d

let drop_pending_at_or_below t seq =
  Array.iter (fun p -> if p.p_seq <> min_int && p.p_seq <= seq then p.p_seq <- min_int) t.pending

let note_vote t ~seq ~digest:d ~voter =
  if seq <= t.low || not (is_boundary t seq) then -1
  else
    match slot_for t seq with
    | None -> -1
    | Some p ->
      if not p.p_known then begin
        p.p_known <- true;
        p.p_digest <- d
      end;
      if not (Hash.equal p.p_digest d) then -1
      else begin
        p.p_votes <- Quorum.add p.p_votes voter;
        if not (Quorum.reached p.p_votes ~threshold:t.quorum) then -1
        else if not p.p_have_own then begin
          (* A certificate formed on a boundary we never reached: the
             group moved on without us, so recover by transfer rather
             than waiting for messages that already passed us by. *)
          t.catchup <- true;
          -1
        end
        else begin
          let prev = t.low in
          let cert = { cp_seq = seq; cp_digest = p.p_digest; cp_signers = p.p_votes } in
          t.stable <- Some (cert, p.p_state, p.p_rids);
          t.low <- seq;
          drop_pending_at_or_below t seq;
          if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.o_stable;
          prev
        end
      end

let needs_catchup t = t.catchup

(* Crash-model self-stabilization (primary-backup): adopt this replica's
   own snapshot at [seq] as the stable checkpoint under a single-signer
   certificate. Serving the last periodic boundary instead would hand a
   recovering primary a stale sequence counter — and with no replayable
   log suffix in the Update stream, it would re-issue sequence numbers
   the backups already executed. *)
let force_stable t ~seq ~state ~rid_last ~rid_result ~voter =
  if seq > t.low then begin
    let rids = snapshot_rids ~rid_last ~rid_result in
    let d = digest ~seq ~state ~rids in
    let cert = { cp_seq = seq; cp_digest = d; cp_signers = Quorum.add Quorum.empty voter } in
    t.stable <- Some (cert, state, rids);
    t.low <- seq;
    drop_pending_at_or_below t seq;
    if !Obs.metrics_on then Registry.incr t.obs.Obs.metrics t.o_stable
  end

let rec split_parts k = function
  | [] -> []
  | xs ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) (x :: acc) rest
    in
    let part, rest = take k [] xs in
    part :: split_parts k rest

let serve t ~view ~have ~suffix =
  match t.stable with
  | Some (cert, state, rids) when cert.cp_seq > have && not t.recovering ->
    let state = if !test_unverified_transfer then Int64.logxor state 0xDEADL else state in
    let rid_parts = split_parts t.cfg.chunk rids in
    let suffix_parts = split_parts t.cfg.chunk suffix in
    let meta =
      Meta
        {
          cert;
          state;
          view;
          rid_parts = List.length rid_parts;
          suffix_parts = List.length suffix_parts;
        }
    in
    Some
      ((meta :: List.mapi (fun part entries -> Rids { part; entries }) rid_parts)
      @ List.mapi (fun part entries -> Suffix { part; entries }) suffix_parts)
  | _ -> None

let begin_recovery t ~now =
  t.recovering <- true;
  t.catchup <- false;
  t.r_src <- -1;
  t.r_started <- now;
  t.r_bytes <- 0;
  t.r_chunks <- 0

let recovering t = t.recovering

let assembly_complete t =
  Array.for_all Option.is_some t.r_rid_parts && Array.for_all Option.is_some t.r_suffix_parts

let finish t ~now =
  let parts a = Array.to_list a |> List.concat_map Option.get in
  let rids = parts t.r_rid_parts in
  let suffix = parts t.r_suffix_parts in
  let actual = digest ~seq:t.r_cert.cp_seq ~state:t.r_state ~rids in
  let valid =
    Hash.equal actual t.r_cert.cp_digest && Quorum.count t.r_cert.cp_signers >= t.quorum
  in
  let completion =
    {
      c_cert = t.r_cert;
      c_state = t.r_state;
      c_rids = rids;
      c_suffix = suffix;
      c_view = t.r_view;
      c_bytes = t.r_bytes;
      c_chunks = t.r_chunks;
      c_elapsed = now - t.r_started;
      c_actual = actual;
      c_valid = valid;
    }
  in
  (* Discard the assembly either way: an invalid completion makes the
     caller re-issue the fetch, which must start clean. *)
  t.r_src <- -1;
  t.r_rid_parts <- [||];
  t.r_suffix_parts <- [||];
  completion

let feed t ~src ~now chunk =
  if not t.recovering then None
  else begin
    (match chunk with
    | Meta { cert; state; view; rid_parts; suffix_parts } ->
      if t.r_src < 0 then begin
        t.r_src <- src;
        t.r_cert <- cert;
        t.r_state <- state;
        t.r_view <- view;
        t.r_rid_parts <- Array.make rid_parts None;
        t.r_suffix_parts <- Array.make suffix_parts None;
        t.r_bytes <- t.r_bytes + chunk_bytes chunk;
        t.r_chunks <- t.r_chunks + 1
      end
    | Rids { part; entries } ->
      if src = t.r_src && part >= 0 && part < Array.length t.r_rid_parts then begin
        t.r_rid_parts.(part) <- Some entries;
        t.r_bytes <- t.r_bytes + chunk_bytes chunk;
        t.r_chunks <- t.r_chunks + 1
      end
    | Suffix { part; entries } ->
      if src = t.r_src && part >= 0 && part < Array.length t.r_suffix_parts then begin
        t.r_suffix_parts.(part) <- Some entries;
        t.r_bytes <- t.r_bytes + chunk_bytes chunk;
        t.r_chunks <- t.r_chunks + 1
      end);
    if t.r_src >= 0 && assembly_complete t then Some (finish t ~now) else None
  end

let install t (c : completion) =
  t.stable <- Some (c.c_cert, c.c_state, c.c_rids);
  t.low <- c.c_cert.cp_seq;
  t.recovering <- false;
  t.catchup <- false;
  t.r_src <- -1;
  drop_pending_at_or_below t t.low;
  if !Obs.metrics_on then begin
    Registry.incr t.obs.Obs.metrics t.o_transfer;
    Registry.add t.obs.Obs.metrics t.o_bytes c.c_bytes;
    Registry.add t.obs.Obs.metrics t.o_chunks c.c_chunks;
    Registry.observe t.obs.Obs.metrics t.o_cycles c.c_elapsed
  end

let rebase t ~seq =
  t.low <- seq;
  t.stable <- None;
  t.catchup <- false;
  (* A view change hands over full state, so any in-flight transfer is
     now stale; ending recovery makes [feed] discard late chunks. *)
  t.recovering <- false;
  t.r_src <- -1;
  Array.iter (fun p -> p.p_seq <- min_int) t.pending

let reset t =
  t.low <- 0;
  t.stable <- None;
  t.catchup <- false;
  t.recovering <- false;
  t.r_src <- -1;
  t.r_rid_parts <- [||];
  t.r_suffix_parts <- [||];
  Array.iter (fun p -> p.p_seq <- min_int) t.pending
