(* Dense quorum tracking for the replication hot path.

   A vote set over replica ids 0..62 is one immutable int bitset: adding
   a vote is [lor], membership is a shift, and the 2f+1 / f+1 threshold
   test is a popcount comparison. Compared to the per-entry
   [(int, unit) Hashtbl.t] this replaces, a quorum costs zero allocation
   and no hashing — the whole tracker lives in one mutable record field
   of a pooled log entry.

   [Rounds] layers view-change tallies on top: a small slot table keyed
   by view, each slot holding one bitset plus an optional per-voter int
   payload (PBFT carries [last_exec] in view-change votes and takes the
   max over voters). Slots whose view the replica has moved past are
   reclaimed lazily, so steady state never allocates. *)

type t = int

let max_voters = 63

let empty = 0

let add t voter = t lor (1 lsl voter)

let mem t voter = (t lsr voter) land 1 = 1

(* Kernighan popcount: one iteration per set bit. Quorums are tiny
   (n <= 63, typically 3-13 voters), so this beats a SWAR sequence that
   cannot use full 64-bit masks on 63-bit ints anyway. *)
let count t =
  let x = ref t in
  let c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

(* Test-only mutation knob: a positive slack makes every threshold test
   accept that many fewer voters (e.g. f+1 where 2f+1 is required). The
   checker self-tests use it to prove resoc_check catches broken quorums;
   it must stay 0 everywhere else. *)
let test_quorum_slack = ref 0

let reached t ~threshold = count t >= threshold - !test_quorum_slack

let check_n n label = if n < 0 || n > max_voters then invalid_arg (label ^ ": need 0 <= n <= 63")

module Rounds = struct
  type round = {
    mutable view : int;  (* -1 = free slot *)
    mutable votes : int;  (* bitset of voters *)
    values : int array;  (* per-voter payload, valid where the bit is set *)
  }

  type t = { n : int; mutable rounds : round array }

  let make_round n = { view = -1; votes = empty; values = Array.make n 0 }

  let create ~n ?(rounds = 4) () =
    check_n n "Quorum.Rounds.create";
    { n; rounds = Array.init (max 1 rounds) (fun _ -> make_round n) }

  (* Find the slot tracking [view], claiming a free or stale one
     (stale = a view the replica has already reached) if absent. Grows
     when many future views are tallied concurrently — effectively never
     in steady state. *)
  let round_for t ~current ~view =
    let len = Array.length t.rounds in
    let found = ref None in
    let claimable = ref None in
    for i = 0 to len - 1 do
      let r = t.rounds.(i) in
      if r.view = view then found := Some r
      else if !claimable = None && (r.view = -1 || r.view <= current) then claimable := Some r
    done;
    match !found with
    | Some r -> r
    | None -> (
      match !claimable with
      | Some r ->
        r.view <- view;
        r.votes <- empty;
        r
      | None ->
        let grown = Array.init (2 * len) (fun i -> if i < len then t.rounds.(i) else make_round t.n) in
        t.rounds <- grown;
        let r = grown.(len) in
        r.view <- view;
        r.votes <- empty;
        r)

  (* Record [voter]'s vote for [view] carrying [value]; a repeat vote
     updates the payload without changing the count (Hashtbl.replace
     semantics). Returns the voter count for [view]. *)
  let note t ~current ~view ~voter ~value =
    let r = round_for t ~current ~view in
    r.votes <- add r.votes voter;
    r.values.(voter) <- value;
    count r.votes

  let max_value t ~view ~default =
    let best = ref default in
    Array.iter
      (fun r ->
        if r.view = view then
          for voter = 0 to t.n - 1 do
            if mem r.votes voter && r.values.(voter) > !best then best := r.values.(voter)
          done)
      t.rounds;
    !best
end
