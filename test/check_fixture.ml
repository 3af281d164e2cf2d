(* The checker fixture the test suites share. The checker and injection-log
   gates are global: [with_check] runs [f] with both on, from fresh replicate
   state, and restores the disabled state afterwards so suites cannot
   contaminate one another. [reset] puts back a suite's own mutation knobs. *)

module Check = Resoc_check.Check
module Inject = Resoc_check.Inject

let with_check ?(reset = ignore) f =
  Fun.protect
    ~finally:(fun () ->
      Check.disable ();
      Inject.stop ();
      Check.begin_replicate ();
      Inject.begin_replicate ();
      reset ())
    (fun () ->
      Check.enable ();
      Inject.record ();
      Check.begin_replicate ();
      Inject.begin_replicate ();
      f ())

(* Whether [f] trips an invariant. *)
let fires f = match f () with () -> false | exception Check.Violation _ -> true

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* A mutation self-test: with [knob] set, [run] must trip an invariant
   whose message names [sub]. Starts from fresh checker state and puts the
   knob back. *)
let mutant_flagged ~knob ~sub run =
  Check.begin_replicate ();
  knob := true;
  Fun.protect
    ~finally:(fun () -> knob := false)
    (fun () ->
      match run () with
      | _ -> Alcotest.fail ("mutant not flagged: " ^ sub)
      | exception Check.Violation msg ->
        Alcotest.(check bool) ("names " ^ sub) true (contains ~sub msg))

(* Runs [f] on a directory name nothing uses yet ([f] or the code under
   test creates it), then removes the directory and the files left in it. *)
let with_fresh_dir f =
  let dir = Filename.temp_file "resoc_check" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)
