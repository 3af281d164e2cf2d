(* The statistical-equivalence gate: compare a directory of campaign
   BENCH_<id>.json against reference files, aggregate by aggregate.

     equiv.exe [--moved FILE] REF_DIR RUN_DIR
     equiv.exe --emit-moved REASON REF_DIR RUN_DIR

   Every (experiment, cell, metric) summary in a reference file is an
   aggregate. With m aggregates, each gets a Bonferroni-corrected interval
   mean ± t(1 - alpha/m, n - 1) · stddev / sqrt n with alpha = 0.05, so
   the chance that any of them misses on an unchanged simulator is at
   most 5% (DESIGN.md §13). An aggregate fails when its two intervals do
   not overlap (two zero-width intervals must be equal; a null, which the
   emitter writes for NaN, only equals a null), when it is missing from
   the run, or when its cell has more failed replicates than the
   reference.

   A change that moves aggregates on purpose lists them in the moved file,
   one per line: experiment, cell, metric, the changed tree's mean and
   half-width, and a reason, tab-separated. A listed aggregate is checked
   against that recorded interval instead of the reference, so it stays
   gated at its new value; a line that matches no aggregate fails.
   [--emit-moved REASON] prints such a line for every aggregate that fails
   against the reference. Exit status 1 when anything fails. *)

module Json = Resoc_obs.Json
module Stats = Resoc_campaign.Stats

(* The family-wise error rate. *)
let alpha = 0.05

type summary = { n : int; mean : float; stddev : float }

let read path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse text

let field name v =
  match Json.member name v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing field %s" name)

let num = function
  | Json.Int i -> Int64.to_float i
  | Json.Float f -> f
  | Json.Null -> Float.nan
  | _ -> failwith "expected a number"

let str = function Json.String s -> s | _ -> failwith "expected a string"

let items = function Json.List l -> l | _ -> failwith "expected a list"

(* (cell id, failed replicates, (metric, summary) list) per cell. *)
let cells doc =
  List.map
    (fun cell ->
      let stats =
        match field "stats" cell with
        | Json.Obj members ->
          List.map
            (fun (metric, s) ->
              ( metric,
                {
                  n = int_of_float (num (field "n" s));
                  mean = num (field "mean" s);
                  stddev = num (field "stddev" s);
                } ))
            members
        | _ -> failwith "expected stats object"
      in
      (str (field "id" cell), int_of_float (num (field "failures" cell)), stats))
    (items (field "cells" doc))

let bench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

let read_moved path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line when String.trim line = "" || line.[0] = '#' -> loop acc
    | line -> (
      let bad () =
        failwith (path ^ ": expected experiment<TAB>cell<TAB>metric<TAB>mean<TAB>half<TAB>reason: " ^ line)
      in
      match String.split_on_char '\t' line with
      | [ exp; cell; metric; mean; half; reason ] -> (
        match (float_of_string_opt mean, float_of_string_opt half) with
        | Some mean, Some half -> loop (((exp, cell, metric), (mean, half, reason)) :: acc)
        | _ -> bad ())
      | _ -> bad ())
  in
  loop []

let show x = if Float.is_nan x then "null" else Printf.sprintf "%g" x

(* Two intervals (mean, half-width) overlap; nulls only match nulls. *)
let overlap (m1, h1) (m2, h2) =
  if Float.is_nan m1 || Float.is_nan m2 then Float.is_nan m1 && Float.is_nan m2
  else Float.abs (m1 -. m2) <= h1 +. h2 +. (1e-9 *. Float.max 1.0 (Float.abs m1))

let () =
  let moved_file = ref "" and emit_reason = ref "" and dirs = ref [] in
  Arg.parse
    [
      ("--moved", Arg.Set_string moved_file, "FILE  aggregates moved on purpose, with their new intervals");
      ("--emit-moved", Arg.Set_string emit_reason, "REASON  print a moved line per failing aggregate");
    ]
    (fun d -> dirs := !dirs @ [ d ])
    "equiv.exe [--moved FILE | --emit-moved REASON] REF_DIR RUN_DIR";
  let ref_dir, run_dir =
    match !dirs with
    | [ r; c ] -> (r, c)
    | _ ->
      prerr_endline "equiv.exe: expected REF_DIR RUN_DIR";
      exit 2
  in
  let emit = !emit_reason <> "" in
  let moved = if !moved_file = "" || emit then [] else read_moved !moved_file in
  let files = bench_files ref_dir in
  let pairs =
    List.map
      (fun f ->
        let exp = Filename.chop_suffix (String.sub f 6 (String.length f - 6)) ".json" in
        let run_path = Filename.concat run_dir f in
        let run = if Sys.file_exists run_path then cells (read run_path) else [] in
        (exp, cells (read (Filename.concat ref_dir f)), run))
      files
  in
  let m =
    List.fold_left
      (fun acc (_, r, _) -> List.fold_left (fun acc (_, _, s) -> acc + List.length s) acc r)
      0 pairs
  in
  if m = 0 then begin
    Printf.eprintf "equiv.exe: no aggregates under %s\n" ref_dir;
    exit 2
  end;
  let p = 1.0 -. (alpha /. float_of_int m) in
  let half s =
    if s.n < 2 || not (s.stddev > 0.0) then 0.0
    else Stats.t_quantile ~df:(s.n - 1) ~p *. s.stddev /. sqrt (float_of_int s.n)
  in
  let failed = ref 0 and accepted = ref 0 and used = Hashtbl.create 16 in
  let fail (exp, cell, metric) what =
    incr failed;
    (if emit then Printf.eprintf else Printf.printf) "FAIL   %s %s %s: %s\n" exp cell metric what
  in
  let check key r c =
    let exp, cell, metric = key in
    let run = (c.mean, half c) in
    match List.assoc_opt key moved with
    | Some (mean, h, reason) ->
      if overlap (mean, h) run then begin
        incr accepted;
        Printf.printf "moved  %s %s %s: run %s ±%g, recorded %s ±%g (%s)\n" exp cell metric
          (show c.mean) (snd run) (show mean) h reason
      end
      else
        fail key
          (Printf.sprintf "run %s ±%g, recorded moved value %s ±%g" (show c.mean) (snd run)
             (show mean) h)
    | None ->
      if not (overlap (r.mean, half r) run) then begin
        fail key
          (Printf.sprintf "reference %s ±%g, run %s ±%g" (show r.mean) (half r) (show c.mean)
             (snd run));
        if emit then
          Printf.printf "%s\t%s\t%s\t%.17g\t%.17g\t%s\n" exp cell metric c.mean (snd run)
            !emit_reason
      end
  in
  List.iter
    (fun (exp, ref_cells, run_cells) ->
      List.iter
        (fun (cell, ref_failures, ref_stats) ->
          let run = List.find_opt (fun (c, _, _) -> c = cell) run_cells in
          (match run with
          | Some (_, run_failures, _) when run_failures > ref_failures ->
            fail (exp, cell, "failures")
              (Printf.sprintf "%d failed replicates, reference %d" run_failures ref_failures)
          | Some _ | None -> ());
          List.iter
            (fun (metric, r) ->
              let key = (exp, cell, metric) in
              if List.mem_assoc key moved then Hashtbl.replace used key ();
              match run with
              | None -> fail key "missing from the run"
              | Some (_, _, run_stats) -> (
                match List.assoc_opt metric run_stats with
                | None -> fail key "missing from the run"
                | Some c -> check key r c))
            ref_stats)
        ref_cells)
    pairs;
  List.iter
    (fun (key, _) ->
      if not (Hashtbl.mem used key) then fail key "moved entry matches no aggregate")
    moved;
  if not emit then
    Printf.printf "%d aggregates, Bonferroni t at p = %.6f: %d failed, %d moved on purpose\n" m p
      !failed !accepted;
  exit (if !failed > 0 then 1 else 0)
