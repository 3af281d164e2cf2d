(* Experiment entry point: prints every experiment table (E1-E11, F1,
   A1-A8). Host performance is measured elsewhere, by the resoc benchmark
   (benchmark/README.md), whose suite workload times this binary.

   Multi-seed experiments run through the resoc_campaign runner: [--seeds]
   sets the replicate count per configuration cell, [--jobs] the number of
   worker domains (default: RESOC_JOBS or the recommended domain count), and
   each campaign writes a machine-readable BENCH_<id>.json (plus CSV with
   [--csv]) into [--json-dir]. Aggregates are bit-identical across worker
   counts.

   Progress lines on stderr default to on only when stderr is a tty
   (override with --no-progress / --progress).

   Exit codes: 0 success, 2 bad usage (unknown experiment id, invalid
   flag value, unwritable --json-dir).

   [--metrics] enables the resoc_obs metrics registry and appends merged
   per-replicate "obs.*" scalars to each campaign's metrics; [--trace FILE]
   additionally records protocol/NoC trace events and writes a Chrome
   trace_event JSON (chrome://tracing, Perfetto). Tracing forces --jobs 1
   so every ring lives on the main domain. Positional arguments are
   experiment ids, equivalent to --only.

   [--check] turns on the resoc_check invariant checker and injection log;
   a replicate that trips an invariant is recorded as a failed trial and
   the run exits 1. [--shrink] additionally ddmin-minimizes every failing
   replicate's injection schedule into FAIL_<exp>_<cell>_<seed>.json
   under --json-dir. [--replay FILE] re-executes the one replicate a FAIL file
   describes, under its suppression mask: exit 0 when the failure
   reproduces, 1 when it does not. Checking composes with --jobs: checker
   state is domain-local.

   Usage: main.exe [ids...] [--only <id>[,<id>...]] [--list] [--seeds N]
                   [--jobs N] [--json-dir DIR | --no-json] [--csv]
                   [--root-seed S] [--no-progress] [--progress]
                   [--metrics] [--trace FILE]
                   [--check] [--shrink] [--replay FILE]
                   [--mcast | --mcast-fabric] [--batch | --batch-armed]

   [--mcast] routes the E2/E3 protocol fan-outs through the fabric's
   multicast (NoC trees on the mesh, the counter-identical loop on the
   hub); [--mcast-fabric] arms the fabric multicast without letting any
   protocol use it, which must leave every campaign output byte-identical
   to a plain run — the determinism gate diffs exactly that.

   [--batch] enables request batching + agreement pipelining (window 50,
   max_batch 8, pipeline depth 4) in the E2/E3 protocol configs;
   [--batch-armed] threads a present-but-inactive batching config through
   the same paths, which must leave every campaign output byte-identical
   to a plain run — the determinism gate's second mode-off probe. *)

let () =
  let only = ref [] in
  let list_only = ref false in
  let seeds = ref 16 in
  let jobs = ref (Resoc_campaign.Pool.default_jobs ()) in
  let json_dir = ref "." in
  let no_json = ref false in
  let csv = ref false in
  let root_seed = ref 0x5EEDL in
  (* Progress chatter defaults to on only for interactive runs; CI logs
     stay clean without needing the flag. *)
  let progress = ref (Unix.isatty Unix.stderr) in
  let metrics = ref false in
  let trace_file = ref "" in
  let check = ref false in
  let shrink = ref false in
  let replay_file = ref "" in
  let mcast = ref Experiments.Mcast_off in
  let batch = ref Experiments.Batch_off in
  let spec =
    [
      ( "--only",
        Arg.String
          (fun s -> only := !only @ String.split_on_char ',' (String.trim s)),
        "IDS run only these experiments (comma-separated ids, see --list)" );
      ("--list", Arg.Set list_only, " list experiment ids and exit");
      ( "--seeds",
        Arg.Set_int seeds,
        "N replicates per campaign cell (default 16)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N worker domains for campaigns (default: RESOC_JOBS or recommended \
         domain count)" );
      ( "--json-dir",
        Arg.Set_string json_dir,
        "DIR directory for BENCH_<id>.json files (default .)" );
      ("--no-json", Arg.Set no_json, " disable BENCH_<id>.json emission");
      ("--csv", Arg.Set csv, " also write BENCH_<id>.csv per campaign");
      ( "--root-seed",
        Arg.String (fun s -> root_seed := Int64.of_string s),
        "S root seed of the campaign seed tree (default 0x5EED)" );
      (* Accepted and ignored: benchmark/suite.ml passes it to every child. *)
      ("--no-bechamel", Arg.Unit ignore, " no effect");
      ( "--no-progress",
        Arg.Clear progress,
        " disable stderr progress/timing lines (default when stderr is not a tty)" );
      ("--progress", Arg.Set progress, " force stderr progress/timing lines on");
      ( "--metrics",
        Arg.Set metrics,
        " enable the obs metrics registry; campaigns append obs.* scalars" );
      ( "--trace",
        Arg.Set_string trace_file,
        "FILE write a Chrome trace_event JSON of the run (forces --jobs 1)" );
      ( "--check",
        Arg.Set check,
        " enable the resoc_check invariant checker; exit 1 on any failed replicate" );
      ( "--shrink",
        Arg.Set shrink,
        " with --check: minimize failing injection schedules to FAIL_<exp>_<cell>_<seed>.json (implies --check)" );
      ( "--replay",
        Arg.Set_string replay_file,
        "FILE re-execute the failing replicate recorded in a FAIL_*.json (implies --check)" );
      ( "--mcast",
        Arg.Unit (fun () -> mcast := Experiments.Mcast_full),
        " route E2/E3 protocol fan-outs through NoC tree / hub multicast" );
      ( "--mcast-fabric",
        Arg.Unit (fun () -> mcast := Experiments.Mcast_fabric),
        " arm the fabric multicast but leave protocols on unicast; outputs \
         must stay byte-identical to a plain run (determinism-gate probe)" );
      ( "--batch",
        Arg.Unit (fun () -> batch := Experiments.Batch_full),
        " enable request batching + agreement pipelining in the E2/E3 \
         protocol configs" );
      ( "--batch-armed",
        Arg.Unit (fun () -> batch := Experiments.Batch_armed),
        " thread a present-but-inactive batching config; outputs must stay \
         byte-identical to a plain run (determinism-gate probe)" );
    ]
  in
  let usage = "main.exe [ids...] [options]\n\nOptions:" in
  Arg.parse (Arg.align spec)
    (fun anon -> only := !only @ String.split_on_char ',' (String.trim anon))
    usage;
  if !list_only then begin
    List.iter (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title) Experiments.all;
    exit 0
  end;
  let replay = ref None in
  if !replay_file <> "" then begin
    (match Resoc_check.Replay.read !replay_file with
    | rt -> replay := Some rt
    | exception (Sys_error msg | Failure msg) ->
      Printf.eprintf "--replay %s: %s\n" !replay_file msg;
      exit 2);
    check := true;
    (* A FAIL record pins one replicate of one campaign; run only that. *)
    only := [ (Option.get !replay).Resoc_check.Replay.experiment ]
  end;
  if !shrink then check := true;
  let known = List.map (fun (id, _, _) -> id) Experiments.all in
  let unknown = List.filter (fun id -> not (List.mem id known)) !only in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment id(s): %s\nvalid ids: %s\n"
      (String.concat ", " unknown) (String.concat " " known);
    exit 2
  end;
  if !seeds < 1 then begin
    Printf.eprintf "--seeds must be >= 1\n";
    exit 2
  end;
  if !jobs < 1 then begin
    Printf.eprintf "--jobs must be >= 1\n";
    exit 2
  end;
  if !metrics then Resoc_obs.Obs.enable_metrics ();
  if !trace_file <> "" then begin
    (* Rings are domain-local; export from the main domain only. *)
    Resoc_obs.Obs.enable_tracing ();
    if !jobs <> 1 then Printf.eprintf "--trace: forcing --jobs 1 (trace rings are domain-local)\n%!";
    jobs := 1
  end;
  if !check then begin
    Resoc_check.Check.enable ();
    Resoc_check.Inject.record ()
  end;
  if not !no_json then begin
    let rec mkdir_p dir =
      if not (Sys.file_exists dir) then begin
        mkdir_p (Filename.dirname dir);
        try Sys.mkdir dir 0o755 with Sys_error _ -> ()
      end
    in
    mkdir_p !json_dir;
    if not (try Sys.is_directory !json_dir with Sys_error _ -> false) then begin
      Printf.eprintf "--json-dir %s: cannot create directory\n" !json_dir;
      exit 2
    end
  end;
  Experiments.run_config :=
    {
      Experiments.replicates = !seeds;
      jobs = !jobs;
      json_dir = (if !no_json then None else Some !json_dir);
      csv = !csv;
      root_seed = !root_seed;
      progress = !progress;
      check = !check;
      shrink = !shrink;
      mcast = !mcast;
      batch = !batch;
    };
  Experiments.replay_target := !replay;
  Printf.printf "resoc experiment suite — reproducing the quantitative claims of\n";
  Printf.printf "\"The Path to Fault- and Intrusion-Resilient Manycore Systems on a Chip\" (DSN'23)\n";
  Printf.printf "campaigns: %d replicates/cell, %d worker domain(s), root seed %Ld\n" !seeds
    !jobs !root_seed;
  List.iter
    (fun (id, _title, run) -> if !only = [] || List.mem id !only then run ())
    Experiments.all;
  if !trace_file <> "" then begin
    let dropped = Resoc_obs.Obs.write_trace !trace_file in
    Printf.eprintf "wrote Chrome trace to %s\n%!" !trace_file;
    if dropped > 0 then
      Printf.eprintf "trace rings wrapped: %d records lost, the trace starts mid-run\n%!" dropped
  end;
  if !check && !Experiments.total_failures > 0 then begin
    Printf.eprintf "resoc_check: %d replicate(s) failed invariant checking\n"
      !Experiments.total_failures;
    exit 1
  end
