(* The resoc benchmark (README.md has the workloads, metrics and bounds).

   resoc_bench.exe [--workload NAME]... [--seed S] [--seconds S]
     Runs each named workload (default: all five) in its own child
     process, one at a time, prints every metric as
     "workload metric value unit", and writes BENCH_RESULTS.json and
     BENCH_RESULTS.tsv in the current directory.

   resoc_bench.exe --workload NAME --seed S --seconds S --trace 0|1
     Runs one workload in this process for about S seconds of timed
     repetitions. The last line of stdout is one JSON object: the
     end-to-end metrics with --trace 0, the per-layer metrics (from an
     extra traced run and the microkernels) with --trace 1. Exit 1 when
     the outputs are not correct.

   resoc_bench.exe --compare A.tsv B.tsv
     Compares two BENCH_RESULTS.tsv files metric by metric.

   resoc_bench.exe --smoke [--catalog BENCHMARK.json]
     The correctness pass at the smallest sizes, without the suite. *)

module Group = Resoc_core.Group
module Obs = Resoc_obs.Obs
module Rng = Resoc_des.Rng

(* --- reporting --- *)

(* One reported metric: a printed line, a TSV row, a JSON entry. *)
type line = {
  workload : string;
  metric : string;
  value : float;
  unit_ : string;
  spread : (float * float * int) option;  (** q1, q3, samples *)
}

let lines : line list ref = ref []

let print_line l =
  match l.spread with
  | Some (q1, q3, n) ->
    Printf.printf "%s %s %.10g %s q1=%.10g q3=%.10g n=%d\n%!" l.workload l.metric l.value l.unit_
      q1 q3 n
  | None -> Printf.printf "%s %s %.10g %s\n%!" l.workload l.metric l.value l.unit_

let add ~workload ?unit_ ?spread metric value =
  let unit_ =
    match (unit_, Catalog.find metric) with
    | Some u, _ -> u
    | None, Some m -> m.Catalog.unit_
    | None, None -> invalid_arg ("unknown metric " ^ metric)
  in
  let value = if Float.is_finite value then value else 0.0 in
  let l = { workload; metric; value; unit_; spread } in
  lines := l :: !lines;
  print_line l

(* [value] defaults to the median of [samples]; the quartiles and sample
   count are printed beside it either way. *)
let add_samples ~workload ?value metric samples =
  let q1, q3 = Measure.quartiles samples in
  let value = Option.value value ~default:(Measure.median samples) in
  add ~workload ~spread:(q1, q3, List.length samples) metric value

(* Host time on a shared machine is skewed: contention only ever slows
   work down, in bursts far shorter than a repetition. So a repetition's
   best-case time is the sum over its systems of each system's fastest run
   across the timed repetitions; its rates divide by that. *)
let sum_floats a = Array.fold_left ( +. ) 0.0 a

let best_sum per_rep reps =
  let systems = Array.length (per_rep (List.hd reps)) in
  sum_floats
    (Array.init systems (fun i -> Measure.minimum (List.map (fun r -> (per_rep r).(i)) reps)))

let note fmt = Printf.ksprintf (fun s -> Printf.printf "# %s\n%!" s) fmt

let result_json ~correct ~attempted ~failed metrics =
  let metric m =
    match List.find_opt (fun l -> l.metric = m.Catalog.name) !lines with
    | Some l -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} l.metric l.value l.unit_
    | None -> failwith ("metric not measured: " ^ m.Catalog.name)
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* --- in-process workloads --- *)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a b = ratio (float_of_int a) (float_of_int b)

let counter outcomes name =
  sum (fun o -> Option.value ~default:0 (List.assoc_opt name o.Workloads.counters)) outcomes

type verdict = { mutable correct : bool; mutable attempted : int; mutable failed : int }

let min_reps = 3
let bytes_per_word = Sys.word_size / 8

let run_workload (w : Workloads.t) ~seed ~seconds ~trace (v : verdict) =
  let workload = w.name in
  let add = add ~workload and add_samples = add_samples ~workload in
  let builder = Group.build in
  let count outcomes =
    v.attempted <- v.attempted + sum (fun o -> o.Workloads.attempted) outcomes;
    v.failed <- v.failed + sum Workloads.failed outcomes
  in
  let warm = Workloads.run_rep ~builder w ~seed in
  let reference = Workloads.fingerprint warm.outcomes in
  count warm.outcomes;
  let outcomes = warm.outcomes in
  let completed = sum (fun o -> o.Workloads.completed) outcomes in
  (* Timed repetitions, tracing off; every one replays the same inputs.
     A set-up trial follows each: it constructs one repetition's systems
     without running them, ten times over when once takes under 20 ms, so
     the median set-up time samples the whole run. *)
  let setup_clock = Workloads.setup_clock () in
  let construct k =
    snd
      (Measure.time (fun () ->
           for _ = 1 to k do
             Workloads.setup_rep ~builder ~clock:setup_clock w ~seed
           done))
    /. float_of_int k
  in
  let k = if construct 1 < 0.02 then 10 else 1 in
  let setups = ref [] in
  let minor = ref 0 and major = ref 0 and promoted = ref 0.0 in
  let t0 = Measure.now_ns () in
  let reps = ref [] and heap_words = ref 0 in
  while Measure.seconds_since t0 < seconds || List.length !reps < min_reps do
    let gc0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
    let rep = Workloads.run_rep ~builder w ~seed in
    let alloc = Gc.allocated_bytes () -. a0 and gc1 = Gc.quick_stat () in
    minor := !minor + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major := !major + gc1.Gc.major_collections - gc0.Gc.major_collections;
    promoted := !promoted +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    count rep.outcomes;
    if Workloads.fingerprint rep.outcomes <> reference then begin
      v.correct <- false;
      Printf.eprintf "%s: a repetition's simulation fingerprint differs from the first one\n%!"
        workload
    end;
    reps := (rep, alloc) :: !reps;
    (* The heap peak is read after a fixed number of repetitions, so it
       does not depend on how many fit in the time budget. *)
    if List.length !reps = min_reps then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    setups := construct k :: !setups
  done;
  while List.length !setups < 5 do
    setups := construct k :: !setups
  done;
  let reps = List.rev !reps in
  let n_reps = List.length reps in
  let walls = List.map (fun (r, _) -> r.Workloads.wall_s) reps in
  let timed = List.map fst reps in
  let best_wall = best_sum (fun r -> r.Workloads.system_s) timed in
  (* Untimed correctness pass at a tenth of the size, checker on. *)
  List.iter
    (fun (attempted, failed, violation) ->
      v.attempted <- v.attempted + attempted;
      v.failed <- v.failed + failed;
      Option.iter
        (fun msg ->
          v.correct <- false;
          Printf.eprintf "%s: checker violation: %s\n%!" workload msg)
        violation)
    (Workloads.check_rep (Workloads.shrink w ~by:10) ~seed);
  add_samples ~value:best_wall "wall_s" walls;
  add_samples
    ~value:(float_of_int completed /. best_wall)
    "req_per_s"
    (List.map (fun s -> float_of_int completed /. s) walls);
  add_samples "setup_s" !setups;
  add_samples "alloc_b_per_req" (List.map (fun (_, a) -> a /. float_of_int completed) reps);
  add "heap_peak_mb" (float_of_int (!heap_words * bytes_per_word) /. float_of_int (1 lsl 20));
  (* The slowest protocol's latency: per protocol, the median over its
     systems of each system's percentile, then the largest of those. *)
  let slowest f =
    Measure.maximum
      (List.filter_map
         (fun k ->
           match List.filter (fun o -> o.Workloads.o_kind = k) outcomes with
           | [] -> None
           | mine -> Some (Measure.median (List.map f mine)))
         Workloads.all_kinds)
  in
  add "sim_p50_cycles" (slowest (fun o -> o.Workloads.lat_p50));
  add "sim_p99_cycles" (slowest (fun o -> o.Workloads.lat_p99));
  add ~unit_:"count" "sim_samples_min"
    (float_of_int (List.fold_left (fun acc o -> min acc o.Workloads.lat_n) max_int outcomes));
  add ~unit_:"ratio" "fail_rate" (per v.failed v.attempted);
  if trace then begin
    (* Untraced layer numbers: one clock read per system. *)
    let kind_of =
      Array.of_list (List.map (fun o -> Workloads.kind_index o.Workloads.o_kind) outcomes)
    in
    List.iteri
      (fun k name ->
        let done_ =
          sum
            (fun o -> if Workloads.kind_index o.Workloads.o_kind = k then o.completed else 0)
            outcomes
        in
        let mine r =
          Array.mapi (fun i s -> if kind_of.(i) = k then s else 0.0) r.Workloads.system_s
        in
        let rate seconds = ratio (float_of_int done_) (seconds *. 1e3) in
        add_samples
          ~value:(rate (best_sum mine timed))
          ("repl." ^ name ^ ".req_per_ms")
          (List.map (fun r -> rate (sum_floats (mine r))) timed))
      Catalog.kinds;
    let events = sum (fun o -> o.Workloads.events) outcomes in
    add "des.events_per_req" (per events completed);
    let event_rate seconds = float_of_int events /. (seconds *. 1e6) in
    add_samples
      ~value:(event_rate (best_sum (fun r -> r.Workloads.drive_s) timed))
      "des.events_per_us"
      (List.map (fun r -> event_rate (sum_floats r.Workloads.drive_s)) timed);
    add "core.soc_setup_share" (per setup_clock.soc_ns setup_clock.total_ns);
    add "core.group_setup_share" (per setup_clock.group_ns setup_clock.total_ns);
    let kreq = float_of_int (completed * n_reps) /. 1e3 in
    add "gc.minor_per_kreq" (float_of_int !minor /. kreq);
    add "gc.major_per_kreq" (float_of_int !major /. kreq);
    add "gc.promoted_b_per_req" (!promoted *. float_of_int bytes_per_word /. (kreq *. 1e3));
    let total f = float_of_int (sum f outcomes) in
    add "repl.checkpoints" (total (fun o -> o.Workloads.checkpoints));
    add "repl.state_transfers" (total (fun o -> o.Workloads.transfers));
    add "repl.transfer_bytes" (total (fun o -> o.Workloads.transfer_bytes));
    add "repl.dissenting_replies" (total (fun o -> o.Workloads.wrong));
    add "fault.link_upsets" (total (fun o -> o.Workloads.upsets));
    let arrivals = sum (fun o -> o.Workloads.attempted) outcomes in
    let backlog = sum (fun o -> o.Workloads.backlog) outcomes in
    add "workload.backlog_per_kreq" (1e3 *. per backlog arrivals);
    (* Traced run: the same systems through the Group.build mirror, with
       every fabric call and handler timed, and the obs registry on. *)
    Obs.enable_metrics ();
    let tracer = Tracer.create () in
    let traced = ref [] in
    let t2 = Measure.now_ns () in
    while Measure.seconds_since t2 < 0.2 *. seconds || List.length !traced < 2 do
      traced := Workloads.run_rep ~tracer ~builder:(Traced_group.build tracer) w ~seed :: !traced
    done;
    Obs.disable ();
    let traced = List.rev !traced in
    let faithful =
      List.for_all (fun r -> Workloads.fingerprint r.Workloads.outcomes = reference) traced
    in
    if not faithful then
      note "%s: traced run diverged from the untraced one; layer numbers are unattributed"
        workload;
    let traced_s = List.fold_left (fun acc r -> acc +. r.Workloads.wall_s) 0.0 traced in
    let share category = float_of_int tracer.Tracer.self_ns.(category) *. 1e-9 /. traced_s in
    let calls category = per tracer.Tracer.calls.(category) (completed * List.length traced) in
    add "repl.replica_share" (share Tracer.replica);
    add "repl.replica_calls_per_req" (calls Tracer.replica);
    add "repl.client_share" (share Tracer.client);
    add "transport.send_share" (share Tracer.send);
    add "transport.sends_per_req" (calls Tracer.send);
    add "transport.bytes_per_req" (per (sum (fun o -> o.Workloads.bytes) outcomes) completed);
    let residual r = sum_floats r.Workloads.drive_s -. r.Workloads.wrapped_s in
    add "des.residual_share"
      (List.fold_left (fun acc r -> acc +. residual r) 0.0 traced /. traced_s);
    let first = (List.hd traced).Workloads.outcomes in
    let counter = counter first in
    add "des.cancelled_ratio" (per (counter "des.events_cancelled") (counter "des.events_fired"));
    add "noc.hops_per_req" (per (counter "noc.hops") completed);
    add "noc.recomputes" (float_of_int (counter "noc.recomputes"));
    add "noc.recompute_visits" (float_of_int (counter "noc.recompute.visits"));
    add "noc.dropped_per_req" (per (counter "noc.dropped") completed);
    add "repl.batch_fill" (per (counter "repl.batch_size.sum") (counter "repl.batch_size.count"));
    add "trace.overhead" (best_sum (fun r -> r.Workloads.system_s) traced /. best_wall);
    add "trace.faithful" (if faithful then 1.0 else 0.0);
    List.iter (fun (name, ns) -> add name ns) (Micro.run ())
  end

(* --- the suite --- *)

let run_suite ~seed ~seconds ~trace (v : verdict) =
  let workload = "suite" in
  let add = add ~workload and add_samples = add_samples ~workload in
  let exe = Suite.main_exe () in
  let scratch = Filename.concat (Sys.getcwd ()) ".resoc_bench" in
  Suite.mkdir_p scratch;
  let ids, _ = Suite.list_experiments ~exe ~scratch in
  let rng = Rng.create seed in
  (* A start-up sample precedes every experiment, so their median samples
     the whole run. *)
  let startups = ref [] in
  let run_child id =
    startups := snd (Suite.list_experiments ~exe ~scratch) :: !startups;
    Suite.run_child ~exe ~scratch id
  in
  let passes = ref [] in
  let t0 = Measure.now_ns () in
  while Measure.seconds_since t0 < seconds || List.length !passes < 3 do
    let order = Array.of_list ids in
    Rng.shuffle rng order;
    passes := Array.to_list (Array.map run_child order) :: !passes
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  let find id pass = List.find (fun c -> c.Suite.id = id) pass in
  (* Every pass must print the same, so the last pass's campaign CSVs
     stand for all of them. *)
  let trials_failed = List.filter (fun id -> Suite.failed_trials ~scratch id > 0) ids in
  List.iter
    (fun id ->
      let c = find id first in
      if
        List.exists
          (fun pass ->
            let c' = find id pass in
            c'.Suite.stdout_digest <> c.Suite.stdout_digest || c'.json_digests <> c.json_digests)
          passes
      then begin
        v.correct <- false;
        Printf.eprintf "suite: %s output differs between passes\n%!" id
      end)
    ids;
  List.iter
    (List.iter (fun c ->
         v.attempted <- v.attempted + 1;
         if c.Suite.status <> Unix.WEXITED 0 || List.mem c.Suite.id trials_failed then begin
           v.failed <- v.failed + 1;
           Printf.eprintf "suite: %s failed\n%!" c.Suite.id
         end))
    passes;
  let n = float_of_int (List.length ids) in
  let best_wall id = Measure.minimum (List.map (fun pass -> (find id pass).Suite.wall_s) passes) in
  let wall = List.fold_left (fun acc id -> acc +. best_wall id) 0.0 ids in
  (* The quartiles printed beside it are those of whole passes. *)
  let pass_walls =
    List.map (fun pass -> List.fold_left (fun acc c -> acc +. c.Suite.wall_s) 0.0 pass) passes
  in
  let q1, q3 = Measure.quartiles pass_walls in
  add ~spread:(q1, q3, List.length passes) "wall_s" wall;
  add "req_per_s" (n /. wall);
  add_samples "setup_s" !startups;
  let gc name c = Option.value ~default:0.0 (List.assoc_opt name c.Suite.gc) in
  let total name = List.fold_left (fun acc c -> acc +. gc name c) 0.0 first in
  let words = float_of_int bytes_per_word in
  add "alloc_b_per_req" (total "allocated_words" *. words /. n);
  add "heap_peak_mb"
    (Measure.maximum (List.map (gc "top_heap_words") first) *. words /. float_of_int (1 lsl 20));
  let latencies = Suite.e2_latencies ~scratch in
  let module Histogram = Resoc_des.Metrics.Histogram in
  add "sim_p50_cycles" (Histogram.percentile latencies 50.0);
  add "sim_p99_cycles" (Histogram.percentile latencies 99.0);
  add ~unit_:"count" "sim_samples_min" (float_of_int (Histogram.count latencies));
  add ~unit_:"ratio" "fail_rate" (per v.failed v.attempted);
  if trace then begin
    add "gc.minor_per_kreq" (total "minor_collections" *. 1e3 /. n);
    add "gc.major_per_kreq" (total "major_collections" *. 1e3 /. n);
    add "gc.promoted_b_per_req" (total "promoted_words" *. words /. n);
    let named = List.filter (fun p -> p <> "rest") Catalog.suite_parts in
    List.iter (fun id -> add ("suite." ^ id ^ "_share") (best_wall id /. wall)) named;
    add "suite.rest_share"
      (1.0 -. List.fold_left (fun acc id -> acc +. (best_wall id /. wall)) 0.0 named);
    List.iter (fun (name, ns) -> add name ns) (Micro.run ())
  end;
  Suite.remove scratch

(* --- one workload in this process --- *)

let run_one name ~seed ~seconds ~trace =
  let v = { correct = true; attempted = 0; failed = 0 } in
  (match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
   | Some w -> run_workload w ~seed ~seconds ~trace v
   | None -> run_suite ~seed ~seconds ~trace v);
  (* A layer the workload does not exercise reads 0. *)
  if trace then
    List.iter
      (fun m ->
        if not (List.exists (fun l -> l.metric = m.Catalog.name) !lines) then
          add ~workload:name m.Catalog.name 0.0)
      Catalog.per_layer;
  print_endline
    (result_json ~correct:v.correct ~attempted:v.attempted ~failed:v.failed
       (if trace then Catalog.per_layer else Catalog.end_to_end));
  if not v.correct then begin
    Printf.eprintf "%s: outputs are not correct\n%!" name;
    exit 1
  end

(* --- every workload, each in a child process --- *)

(* The printed line's form, read back from a child's stdout. *)
let parse_line text =
  match List.filter (( <> ) "") (String.split_on_char ' ' text) with
  | workload :: metric :: value :: unit_ :: rest when List.mem_assoc workload Catalog.workloads
    -> (
    match float_of_string_opt value with
    | None -> None
    | Some value ->
      let field key =
        List.find_map
          (fun tok ->
            match String.split_on_char '=' tok with
            | [ k; x ] when k = key -> float_of_string_opt x
            | _ -> None)
          rest
      in
      let spread =
        match (field "q1", field "q3", field "n") with
        | Some q1, Some q3, Some n -> Some (q1, q3, int_of_float n)
        | _ -> None
      in
      Some { workload; metric; value; unit_; spread })
  | _ -> None

let tsv_header = "workload\tmetric\tvalue\tq1\tq3\tn\tunit"

(* An exact value is its own quartiles, from one sample. *)
let quartiles l = Option.value l.spread ~default:(l.value, l.value, 1)

let write_results ~seed results =
  Out_channel.with_open_text "BENCH_RESULTS.tsv" (fun oc ->
      output_string oc (tsv_header ^ "\n");
      List.iter
        (fun l ->
          let q1, q3, n = quartiles l in
          Printf.fprintf oc "%s\t%s\t%.10g\t%.10g\t%.10g\t%d\t%s\n" l.workload l.metric l.value q1
            q3 n l.unit_)
        results);
  Out_channel.with_open_text "BENCH_RESULTS.json" (fun oc ->
      Printf.fprintf oc {|{"seed": %Ld, "results": [|} seed;
      List.iteri
        (fun i l ->
          let q1, q3, n = quartiles l in
          Printf.fprintf oc
            {|%s{"workload": "%s", "metric": "%s", "value": %.17g, |}
            (if i = 0 then "\n  " else ",\n  ")
            l.workload l.metric l.value;
          Printf.fprintf oc {|"q1": %.17g, "q3": %.17g, "n": %d, "unit": "%s"}|} q1 q3 n l.unit_)
        results;
      output_string oc "\n]}\n")

let run_all names ~seed ~seconds =
  let results = ref [] and ok = ref true in
  List.iter
    (fun name ->
      let args =
        [|
          Sys.executable_name; "--workload"; name; "--seed"; Int64.to_string seed; "--seconds";
          Printf.sprintf "%g" seconds; "--trace"; "1";
        |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let rec read () =
        match In_channel.input_line ic with
        | None -> ()
        | Some text ->
          if not (String.starts_with ~prefix:"{" text) then print_endline text;
          Option.iter (fun l -> results := l :: !results) (parse_line text);
          read ()
      in
      read ();
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | _ ->
        ok := false;
        Printf.eprintf "workload %s failed\n%!" name)
    names;
  write_results ~seed (List.rev !results);
  print_endline "wrote BENCH_RESULTS.tsv and BENCH_RESULTS.json";
  if not !ok then exit 1

(* --- comparison of two result files --- *)

let read_tsv path =
  match In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' with
  | header :: rows when header = tsv_header ->
    List.filter_map
      (fun line ->
        match String.split_on_char '\t' line with
        | [ workload; metric; value; q1; q3; n; unit_ ] ->
          let spread = Some (float_of_string q1, float_of_string q3, int_of_string n) in
          Some { workload; metric; value = float_of_string value; unit_; spread }
        | _ -> None)
      rows
  | _ -> failwith (path ^ ": not a BENCH_RESULTS.tsv file")

let compare_files a b =
  let rows_a = read_tsv a and rows_b = read_tsv b in
  let regressed = ref 0 in
  Printf.printf "%-12s %-28s %14s %14s %9s %7s  %s\n" "workload" "metric" "A" "B" "delta" "bound"
    "verdict";
  List.iter
    (fun ra ->
      match
        List.find_opt (fun rb -> rb.workload = ra.workload && rb.metric = ra.metric) rows_b
      with
      | None -> ()
      | Some rb ->
        let delta =
          if ra.value <> 0.0 then (rb.value -. ra.value) /. Float.abs ra.value
          else if rb.value = 0.0 then 0.0
          else infinity
        in
        let bound, verdict =
          match Catalog.find ra.metric with
          | Some { Catalog.bound = Some bound; better; _ } ->
            let worse = if better = Catalog.Lower then delta else -.delta in
            let spread r =
              let q1, q3, _ = quartiles r in
              if r.value = 0.0 then 0.0 else (q3 -. q1) /. Float.abs r.value
            in
            let verdict =
              if Float.max (spread ra) (spread rb) > bound then "unresolved"
              else if worse > bound then begin
                incr regressed;
                "regressed"
              end
              else if worse < -.bound then "improved"
              else "within"
            in
            (Printf.sprintf "%.0f%%" (bound *. 100.0), verdict)
          | _ -> ("-", "-")
        in
        Printf.printf "%-12s %-28s %14.6g %14.6g %+8.1f%% %7s  %s\n" ra.workload ra.metric
          ra.value rb.value (delta *. 100.0) bound verdict)
    rows_a;
  if !regressed > 0 then exit 1

(* --- smoke: the correctness pass at the smallest sizes --- *)

let smoke ~catalog ~seed =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Option.iter
    (fun path ->
      List.iter (problem "%s: %s" path)
        (Catalog.check_benchmark_json (In_channel.with_open_bin path In_channel.input_all)))
    catalog;
  List.iter
    (fun (w : Workloads.t) ->
      let w = Workloads.shrink w ~by:10 in
      List.iter
        (fun (attempted, failed, violation) ->
          if failed > 0 then problem "%s: %d of %d requests failed" w.name failed attempted;
          Option.iter (problem "%s: checker violation: %s" w.name) violation)
        (Workloads.check_rep w ~seed);
      let fingerprint ?tracer builder =
        Workloads.fingerprint (Workloads.run_rep ?tracer ~builder w ~seed).outcomes
      in
      let reference = fingerprint Group.build in
      if fingerprint Group.build <> reference then problem "%s: two repetitions differ" w.name;
      let tracer = Tracer.create () in
      if fingerprint ~tracer (Traced_group.build tracer) <> reference then
        problem "%s: the traced run differs from the untraced one" w.name;
      Printf.printf "smoke %s ok=%b\n%!" w.name (!problems = []))
    Workloads.all;
  List.iter (Printf.eprintf "smoke: %s\n") (List.rev !problems);
  if !problems <> [] then exit 1

(* --- command line --- *)

let () =
  let workloads = ref [] and seed = ref 0x5EEDL and seconds = ref 6.0 and trace = ref None in
  let compare = ref [] and smoke_mode = ref false and catalog = ref None in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "NAME workload to run (repeatable; default all)" );
      ( "--seed",
        Arg.String (fun s -> seed := Int64.of_string s),
        "S workload seed (default 0x5EED)" );
      ( "--seconds",
        Arg.Set_float seconds,
        "S timed repetitions per workload, in seconds (default 6)" );
      ( "--trace",
        Arg.Int (fun t -> trace := Some (t <> 0)),
        "0|1 run one workload in this process and print its result as JSON: end-to-end (0) or \
         per-layer (1) metrics" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun a -> compare := [ a ]);
            Arg.String (fun b -> compare := !compare @ [ b ]);
          ],
        "A.tsv B.tsv compare two result files" );
      ("--smoke", Arg.Set smoke_mode, " correctness pass at the smallest sizes");
      ( "--catalog",
        Arg.String (fun p -> catalog := Some p),
        "FILE with --smoke: BENCHMARK.json to check" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "resoc_bench.exe [options]";
  let known = List.map fst Catalog.workloads in
  List.iter
    (fun w ->
      if not (List.mem w known) then begin
        Printf.eprintf "unknown workload %s (known: %s)\n" w (String.concat " " known);
        exit 2
      end)
    !workloads;
  if !seconds <= 0.0 then begin
    prerr_endline "--seconds must be positive";
    exit 2
  end;
  match (!compare, !smoke_mode, !trace, !workloads) with
  | [ a; b ], _, _, _ -> compare_files a b
  | _, true, _, _ -> smoke ~catalog:!catalog ~seed:!seed
  | _, _, Some trace, [ name ] -> run_one name ~seed:!seed ~seconds:!seconds ~trace
  | _, _, Some _, _ ->
    prerr_endline "--trace runs exactly one --workload";
    exit 2
  | _, _, None, names ->
    run_all (if names = [] then known else names) ~seed:!seed ~seconds:!seconds
