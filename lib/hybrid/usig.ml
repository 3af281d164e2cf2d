module Mac = Resoc_crypto.Mac
module Hash = Resoc_crypto.Hash
module Register = Resoc_hw.Register
module Check = Resoc_check.Check

(* Test-only mutation knob: a broken USIG that re-issues the current counter
   value instead of stepping it. The resoc_check self-tests flip it to prove
   the issuance checker catches counter reuse; leave [false] otherwise. *)
let test_reissue = ref false

type t = {
  id : int;
  key : Mac.key;
  reg : Register.t;
  mutable issued : int;
  mutable faults_detected : int;
  mutable corrections : int;
  mutable failed : bool;
  chk : int;  (* resoc_check hybrid id, -1 when checking is off *)
}

type ui = { signer : int; counter : int64; tag : Mac.t }

let create ~id ~key ~protection =
  {
    id;
    key;
    reg = Register.create protection 0L;
    issued = 0;
    faults_detected = 0;
    corrections = 0;
    failed = false;
    chk = (if !Check.enabled then Check.new_hybrid ~name:"usig" else -1);
  }

let id t = t.id

let counter_register t = t.reg

let counter_value t = fst (Register.read t.reg)

let ui_tag = Hash.of_string "usig-ui"

let ui_prefix = Hash.memo_signers (fun signer -> Hash.combine_int (Hash.combine_int ui_tag signer) 0)

let ui_digest ~signer ~counter digest =
  Hash.combine (ui_prefix signer) (Hash.combine counter digest)

let failed t = t.failed

let create_ui t digest =
  if t.failed then Error "usig: latched failed (uncorrectable counter fault)"
  else
  match Register.read t.reg with
  | _, Register.Fault_detected ->
    (* An uncorrectable error on the monotonic counter is unrecoverable
       without re-provisioning: latch fail-stop rather than keep operating
       on (and further degrading) a suspect counter. *)
    t.faults_detected <- t.faults_detected + 1;
    t.failed <- true;
    Error "usig: counter register fault detected"
  | current, status ->
    if status = Register.Corrected then t.corrections <- t.corrections + 1;
    let next =
      if !test_reissue && Int64.compare current 0L > 0 then current else Int64.add current 1L
    in
    Register.write t.reg next;
    t.issued <- t.issued + 1;
    if t.chk >= 0 then Check.counter_issued ~hybrid:t.chk ~read:current ~issued:next ~digest;
    let tag = Mac.sign t.key (ui_digest ~signer:t.id ~counter:next digest) in
    Ok { signer = t.id; counter = next; tag }

let verify_ui ~key ~digest ui =
  Mac.verify key (ui_digest ~signer:ui.signer ~counter:ui.counter digest) ui.tag

let uis_issued t = t.issued
let faults_detected t = t.faults_detected
let corrections t = t.corrections

module Monotonic = struct
  type checker = (int, int64) Hashtbl.t

  type verdict = Accept | Replay | Gap of int64

  let create () : checker = Hashtbl.create 8

  let last_accepted t ~signer =
    match Hashtbl.find_opt t signer with Some c -> c | None -> 0L

  let force t ~signer ~counter = Hashtbl.replace t signer counter

  let check t ~signer ~counter =
    let last = last_accepted t ~signer in
    if Int64.compare counter last <= 0 then Replay
    else if Int64.equal counter (Int64.add last 1L) then begin
      Hashtbl.replace t signer counter;
      Accept
    end
    else Gap (Int64.sub counter (Int64.add last 1L))
end
