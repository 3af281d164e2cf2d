(* Tests for the resoc_obs observability layer: registry semantics, ring
   wraparound, span phases, Chrome trace_event JSON well-formedness, the
   end-to-end wiring through engine/NoC/replication, and the determinism
   property that enabling tracing never changes a MinBFT run. *)

open Resoc_obs
module Engine = Resoc_des.Engine
module Mesh = Resoc_noc.Mesh
module Network = Resoc_noc.Network
module Transport = Resoc_repl.Transport
module Minbft = Resoc_repl.Minbft
module Stats = Resoc_repl.Stats

(* Flags are global; every test that touches them restores the disabled
   state so suites cannot contaminate one another. *)
let with_flags ~metrics ~trace f =
  Fun.protect ~finally:Obs.disable (fun () ->
      Obs.disable ();
      Obs.begin_replicate ();
      if metrics then Obs.enable_metrics ();
      if trace then Obs.enable_tracing ~capacity:65536 ();
      f ())

let scalars reg =
  let acc = ref [] in
  Registry.iter_scalars reg (fun name ~gauge:_ v -> acc := (name, v) :: !acc);
  List.rev !acc

(* --- Registry ---------------------------------------------------------- *)

let test_counter_gauge () =
  let r = Registry.create () in
  let c = Registry.counter r "a.count" in
  let g = Registry.gauge r "a.gauge" in
  Registry.incr r c;
  Registry.incr r c;
  Registry.add r c 3;
  Registry.set r g 7;
  Registry.set r g 5;
  Alcotest.(check int) "counter accumulates" 5 (Registry.get r c);
  Alcotest.(check int) "gauge overwrites" 5 (Registry.get r g);
  Alcotest.(check int) "re-registration returns the same cell" c (Registry.counter r "a.count");
  Alcotest.(check int) "two metrics" 2 (Registry.n_metrics r);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: \"a.count\" re-registered with a different kind") (fun () ->
      ignore (Registry.gauge r "a.count"))

let test_counter_block () =
  let r = Registry.create () in
  let base = Registry.counter_block r ~n:4 ~name:(fun i -> "link." ^ string_of_int i) in
  Registry.incr r (base + 2);
  Registry.incr r (base + 2);
  Registry.incr r (base + 3);
  Alcotest.(check int) "dense ids index their counter" 2 (Registry.get r (base + 2));
  Alcotest.(check int) "four registered" 4 (Registry.n_metrics r);
  Alcotest.(check int) "idempotent on name 0" base
    (Registry.counter_block r ~n:4 ~name:(fun i -> "link." ^ string_of_int i));
  Alcotest.(check int) "still four" 4 (Registry.n_metrics r)

let test_histogram () =
  let r = Registry.create () in
  let h = Registry.histogram r "lat" ~bounds:[| 10; 20; 40 |] in
  List.iter (Registry.observe r h) [ 5; 10; 11; 39; 100 ];
  Alcotest.(check int) "bucket <=10" 2 (Registry.hist_bucket r h 0);
  Alcotest.(check int) "bucket <=20" 1 (Registry.hist_bucket r h 1);
  Alcotest.(check int) "bucket <=40" 1 (Registry.hist_bucket r h 2);
  Alcotest.(check int) "overflow bucket" 1 (Registry.hist_bucket r h 3);
  Alcotest.(check int) "count" 5 (Registry.hist_count r h);
  Alcotest.(check int) "sum" 165 (Registry.hist_sum r h);
  Registry.reset r;
  Alcotest.(check int) "reset zeroes counts" 0 (Registry.hist_count r h);
  Alcotest.(check int) "registrations survive reset" 1 (Registry.n_metrics r);
  Alcotest.check_raises "bounds must increase"
    (Invalid_argument "Registry.histogram: bounds must be strictly increasing") (fun () ->
      ignore (Registry.histogram r "bad" ~bounds:[| 3; 3 |]))

let test_iter_scalars () =
  let r = Registry.create () in
  let c = Registry.counter r "c" in
  let h = Registry.histogram r "h" ~bounds:[| 1; 2 |] in
  let g = Registry.gauge r "g" in
  Registry.incr r c;
  Registry.observe r h 2;
  Registry.set r g 9;
  Alcotest.(check (list (pair string int)))
    "flattened in registration order"
    [ ("c", 1); ("h.count", 1); ("h.sum", 2); ("g", 9) ]
    (scalars r)

(* --- the JSON reader ------------------------------------------------------ *)

module Json = Resoc_obs.Json

let json_ok s = match Json.parse s with _ -> true | exception Failure _ -> false

let test_json_values () =
  let v =
    Json.parse
      {| {"seed": -6413476535016377137, "big": 9223372036854775808, "x": 1.5e3, "n": -0.25,
          "l": [true, false, null, 0], "s": "a\"b\\c\/d\n\u00e9\ud83d\ude00"} |}
  in
  let get name = Json.member name v in
  Alcotest.(check bool) "seed exact past 2^53" true
    (get "seed" = Some (Json.Int (-6413476535016377137L)));
  Alcotest.(check bool) "past int64 is a float" true
    (get "big" = Some (Json.Float 9223372036854775808.));
  Alcotest.(check bool) "exponent" true (get "x" = Some (Json.Float 1500.));
  Alcotest.(check bool) "fraction" true (get "n" = Some (Json.Float (-0.25)));
  Alcotest.(check bool) "list" true
    (get "l" = Some (Json.List [ Json.Bool true; Json.Bool false; Json.Null; Json.Int 0L ]));
  Alcotest.(check (option string)) "escapes and UTF-8" (Some "a\"b\\c/d\n\xc3\xa9\xf0\x9f\x98\x80")
    (match get "s" with Some (Json.String s) -> Some s | _ -> None);
  Alcotest.(check bool) "missing member" true (get "nope" = None)

let test_json_rejects () =
  List.iter
    (fun doc -> Alcotest.(check bool) ("rejects " ^ String.escaped doc) false (json_ok doc))
    [
      "";
      "{";
      "[1,]";
      "{\"a\" 1}";
      "\"raw\ncontrol\"";
      "\"\\x\"";
      "\"\\ud800\"";
      "\"\\udc00\"";
      "\"\\u12g4\"";
      "01";
      "1.";
      "-";
      "1e";
      "[1] 2";
      "tru";
    ]

let test_json_string_roundtrip () =
  let all_bytes = String.init 256 Char.chr in
  let buf = Buffer.create 512 in
  Json.add_string buf all_bytes;
  Alcotest.(check bool) "every byte survives add_string then parse" true
    (Json.parse (Buffer.contents buf) = Json.String all_bytes)

let test_registry_json_csv () =
  let r = Registry.create () in
  Registry.incr r (Registry.counter r "weird \"name\"\nwith,comma");
  ignore (Registry.histogram r "h" ~bounds:[| 1; 2 |]);
  Alcotest.(check bool) "registry JSON parses" true (json_ok (Registry.to_json r));
  let csv = Registry.to_csv r in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 21 && String.sub csv 0 21 = "name,kind,field,value")

(* --- Ring -------------------------------------------------------------- *)

let test_ring_wraparound () =
  let ring = Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Ring.instant ring ~time:i ~cat:0 ~id:i ~arg:(2 * i)
  done;
  Alcotest.(check int) "total" 10 (Ring.total ring);
  Alcotest.(check int) "length" 4 (Ring.length ring);
  Alcotest.(check int) "dropped" 6 (Ring.dropped ring);
  let seen = ref [] in
  Ring.iter ring (fun ~time ~cat:_ ~phase:_ ~id:_ ~arg:_ -> seen := time :: !seen);
  Alcotest.(check (list int)) "oldest-first, newest kept" [ 6; 7; 8; 9 ] (List.rev !seen)

let test_ring_disabled () =
  let ring = Ring.create ~capacity:0 in
  Ring.instant ring ~time:1 ~cat:0 ~id:0 ~arg:0;
  Alcotest.(check int) "capacity 0 records nothing" 0 (Ring.total ring);
  Alcotest.(check int) "length 0" 0 (Ring.length ring)

let test_ring_phases () =
  let ring = Ring.create ~capacity:8 in
  Ring.span_begin ring ~time:0 ~cat:1 ~id:7 ~arg:0;
  Ring.span_end ring ~time:1 ~cat:1 ~id:7 ~arg:0;
  Ring.sample ring ~time:2 ~cat:2 ~id:3 ~arg:42;
  Ring.async_begin ring ~time:3 ~cat:3 ~id:9 ~arg:0;
  Ring.async_end ring ~time:4 ~cat:3 ~id:9 ~arg:0;
  let phases = ref [] in
  Ring.iter ring (fun ~time:_ ~cat:_ ~phase ~id:_ ~arg:_ -> phases := phase :: !phases);
  Alcotest.(check bool) "phases round-trip" true
    (List.rev !phases
    = [ Ring.Span_begin; Ring.Span_end; Ring.Sample; Ring.Async_begin; Ring.Async_end ])

(* --- Chrome export ----------------------------------------------------- *)

let count_substring hay needle =
  let nl = String.length needle in
  let rec go from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
      if i + nl <= String.length hay && String.sub hay i nl = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

let test_chrome_wellformed () =
  let ring = Ring.create ~capacity:16 in
  Ring.span_begin ring ~time:0 ~cat:0 ~id:1 ~arg:0;
  Ring.span_begin ring ~time:1 ~cat:0 ~id:2 ~arg:0;
  Ring.span_end ring ~time:2 ~cat:0 ~id:2 ~arg:0;
  Ring.span_end ring ~time:3 ~cat:0 ~id:1 ~arg:0;
  Ring.instant ring ~time:4 ~cat:1 ~id:5 ~arg:9;
  Ring.sample ring ~time:5 ~cat:1 ~id:5 ~arg:3;
  Ring.async_begin ring ~time:6 ~cat:2 ~id:8 ~arg:0;
  Ring.async_end ring ~time:7 ~cat:2 ~id:8 ~arg:0;
  let s =
    Chrome.to_string ~rings:[ ring ]
      ~name:(fun ~cat:_ ~id -> Printf.sprintf "ev\"%d\"" id)
      ~cat_label:(fun _ -> "c")
      ()
  in
  Alcotest.(check bool) "Chrome JSON parses (with escaped names)" true (json_ok s);
  Alcotest.(check int) "one event per record" 8 (count_substring s "\"ph\":");
  Alcotest.(check int) "nested spans open" 2 (count_substring s "\"ph\":\"B\"");
  Alcotest.(check int) "nested spans close" 2 (count_substring s "\"ph\":\"E\"");
  Alcotest.(check int) "async pair" 2 (count_substring s "\"id\":\"0x8\"")

(* A ring that wrapped says so in its export: one metadata record up
   front with the lost count, in [Chrome.to_string] and in the file
   [Obs.write_trace] writes, which also returns the count. A ring that
   did not wrap exports no such record. *)
let test_chrome_reports_wrap () =
  let export ring =
    Chrome.to_string ~rings:[ ring ] ~name:(fun ~cat:_ ~id:_ -> "ev") ~cat_label:(fun _ -> "c") ()
  in
  let ring = Ring.create ~capacity:4 in
  for time = 0 to 9 do
    Ring.instant ring ~time ~cat:1 ~id:5 ~arg:time
  done;
  let s = export ring in
  let has sub = Check_fixture.contains ~sub s in
  Alcotest.(check bool) "wrapped export parses" true (json_ok s);
  Alcotest.(check bool) "metadata record first" true
    (has {|{"traceEvents":[{"name":"ring_dropped","ph":"M"|});
  Alcotest.(check bool) "lost count" true (has {|"args":{"dropped":6}|});
  Alcotest.(check int) "retained records plus one" 5 (count_substring s "\"ph\":");
  let whole = Ring.create ~capacity:4 in
  Ring.instant whole ~time:0 ~cat:1 ~id:5 ~arg:0;
  Alcotest.(check bool) "no record without loss" false
    (Check_fixture.contains ~sub:"ring_dropped" (export whole));
  let path = Filename.temp_file "resoc_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_flags ~metrics:false ~trace:true (fun () ->
          Obs.enable_tracing ~capacity:8 ();
          let inst = Obs.create () in
          (* Only [create] reads the capacity: restore the default at once. *)
          Obs.enable_tracing ~capacity:65536 ();
          for time = 0 to 11 do
            Ring.instant inst.Obs.ring ~time ~cat:Obs.Cat.repl ~id:0 ~arg:0
          done;
          Alcotest.(check int) "write_trace returns the loss" 4 (Obs.write_trace path);
          let written = In_channel.with_open_bin path In_channel.input_all in
          Alcotest.(check bool) "file notes the loss" true
            (Check_fixture.contains ~sub:{|"args":{"dropped":4}|} written)))

(* --- end-to-end wiring ------------------------------------------------- *)

let test_disabled_registers_nothing () =
  with_flags ~metrics:false ~trace:false (fun () ->
      let engine = Engine.create () in
      ignore (Engine.schedule engine ~delay:1 (fun () -> ()));
      Engine.run engine;
      Alcotest.(check int) "no instruments when disabled" 0
        (Registry.n_metrics (Engine.obs engine).Obs.metrics);
      Alcotest.(check int) "no ring when disabled" 0 (Ring.total (Engine.obs engine).Obs.ring))

let test_engine_metrics () =
  with_flags ~metrics:true ~trace:false (fun () ->
      let engine = Engine.create () in
      let h = ref None in
      ignore (Engine.schedule engine ~delay:1 (fun () -> ()));
      h := Some (Engine.schedule engine ~delay:2 (fun () -> ()));
      ignore (Engine.schedule engine ~delay:3 (fun () -> ()));
      (match !h with Some h -> Engine.cancel engine h | None -> ());
      Engine.run engine;
      let m = scalars (Engine.obs engine).Obs.metrics in
      Alcotest.(check (option int)) "events fired" (Some 2) (List.assoc_opt "des.events_fired" m);
      Alcotest.(check (option int)) "events cancelled" (Some 1)
        (List.assoc_opt "des.events_cancelled" m))

let test_noc_metrics () =
  with_flags ~metrics:true ~trace:false (fun () ->
      let engine = Engine.create () in
      let mesh = Mesh.create ~width:3 ~height:3 in
      let net = Network.create engine mesh Network.default_config in
      Network.attach net ~node:8 (fun ~src:_ _ -> ());
      for _ = 1 to 5 do
        Network.send net ~src:0 ~dst:8 ~bytes_:32 ()
      done;
      Engine.run engine;
      let m = scalars (Engine.obs engine).Obs.metrics in
      Alcotest.(check (option int)) "delivered" (Some 5) (List.assoc_opt "noc.delivered" m);
      Alcotest.(check (option int)) "latency samples" (Some 5)
        (List.assoc_opt "noc.latency.count" m);
      let link_hops =
        List.fold_left
          (fun acc (name, v) ->
            if String.length name > 9 && String.sub name 0 9 = "noc.link." then acc + v else acc)
          0 m
      in
      (* 5 unicasts over 4 hops each *)
      Alcotest.(check int) "per-link utilization sums to hops" 20 link_hops)

let run_minbft ~seed ~count =
  let engine = Engine.create ~seed () in
  let config = { Minbft.default_config with n_clients = 1 } in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 1) () in
  let sys = Minbft.start engine fabric config () in
  for i = 1 to count do
    Minbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:200_000 engine;
  (engine, sys, n)

let minbft_fingerprint ~seed ~count =
  let engine, sys, n = run_minbft ~seed ~count in
  let s = Minbft.stats sys in
  ( s.Stats.completed,
    Engine.events_processed engine,
    List.init n (fun r -> Minbft.replica_state sys ~replica:r) )

let test_minbft_replicate_metrics () =
  with_flags ~metrics:true ~trace:false (fun () ->
      let _engine, sys, _n = run_minbft ~seed:7L ~count:4 in
      Alcotest.(check int) "requests completed" 4 (Minbft.stats sys).Stats.completed;
      let m = Obs.replicate_metrics () in
      let get name = List.assoc_opt name m in
      Alcotest.(check bool) "obs.des.events_fired > 0" true
        (match get "obs.des.events_fired" with Some v -> v > 0.0 | None -> false);
      (* Batch sizes are recorded by the Batcher alone; unbatched MinBFT,
         like every other protocol, has none. *)
      Alcotest.(check (option (float 0.0))) "no batcher, no batch sizes" None
        (get "obs.repl.batch_size.count");
      Alcotest.(check (option (float 0.0))) "no view changes" (Some 0.0)
        (get "obs.repl.view_changes");
      Alcotest.(check bool) "metrics_json parses" true (json_ok (Obs.metrics_json ())))

(* Each certificate the primary issues covers one sealed batch, and the
   Batcher is the only place that records [repl.batch_size]. *)
let test_batch_size_counts_each_batch_once () =
  with_flags ~metrics:true ~trace:false (fun () ->
      let engine = Engine.create ~seed:7L () in
      let batching =
        Some { Resoc_repl.Types.window_cycles = 50; max_batch = 8; pipeline_depth = 4 }
      in
      let config = { Minbft.default_config with n_clients = 8; batching } in
      let n = Minbft.n_replicas config in
      let sys = Minbft.start engine (Transport.hub engine ~n:(n + 8) ()) config () in
      for c = 0 to 7 do
        for i = 1 to 16 do
          Minbft.submit sys ~client:c ~payload:(Int64.of_int i)
        done
      done;
      Engine.run ~until:600_000 engine;
      Alcotest.(check int) "requests completed" 128 (Minbft.stats sys).Stats.completed;
      let m = Obs.replicate_metrics () in
      let certs = Resoc_hybrid.Usig.uis_issued (Minbft.usig sys ~replica:0) in
      Alcotest.(check (option (float 0.0))) "one batch per certificate"
        (Some (float_of_int certs))
        (List.assoc_opt "obs.repl.batch_size.count" m);
      Alcotest.(check (option (float 0.0))) "each request in one batch" (Some 128.0)
        (List.assoc_opt "obs.repl.batch_size.sum" m))

let test_trace_spans_pair_up () =
  with_flags ~metrics:false ~trace:true (fun () ->
      let engine, _sys, _n = run_minbft ~seed:7L ~count:3 in
      let ring = (Engine.obs engine).Obs.ring in
      let begins = ref 0 and ends = ref 0 in
      Ring.iter ring (fun ~time:_ ~cat ~phase ~id:_ ~arg:_ ->
          if cat = Obs.Cat.repl then
            match phase with
            | Ring.Async_begin -> incr begins
            | Ring.Async_end -> incr ends
            | _ -> ());
      Alcotest.(check bool) "protocol spans recorded" true (!begins > 0);
      Alcotest.(check bool) "no span outlives the run" true (!ends <= !begins))

(* Link upsets carry their own fault id, so Chrome names them after the
   link campaign rather than after the trojan injector. *)
let test_link_upset_exports_as_link () =
  with_flags ~metrics:false ~trace:true (fun () ->
      let engine = Engine.create () in
      let mesh = Mesh.create ~width:4 ~height:4 in
      let lf =
        Resoc_fault.Link_fault.start engine
          (Resoc_des.Rng.split (Engine.rng engine))
          mesh
          { Resoc_fault.Link_fault.default_config with upset_rate = 1e-3 }
      in
      Engine.run ~until:2_000 engine;
      Alcotest.(check bool) "upsets happened" true (Resoc_fault.Link_fault.upsets lf > 0);
      let s =
        Chrome.to_string ~rings:[ (Engine.obs engine).Obs.ring ] ~name:Obs.default_name
          ~cat_label:Obs.Cat.label ()
      in
      let has sub = Check_fixture.contains ~sub s in
      Alcotest.(check bool) "named fault.link" true (has {|"name":"fault.link"|});
      Alcotest.(check bool) "not named fault.trojan" false (has {|"name":"fault.trojan"|}))

let prop_tracing_is_transparent =
  QCheck.Test.make ~name:"enabling tracing never changes a MinBFT run" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, count) ->
      let seed = Int64.of_int (seed + 1) in
      let base =
        with_flags ~metrics:false ~trace:false (fun () -> minbft_fingerprint ~seed ~count)
      in
      let traced =
        with_flags ~metrics:false ~trace:true (fun () -> minbft_fingerprint ~seed ~count)
      in
      base = traced)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "counter block" `Quick test_counter_block;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "iter_scalars" `Quick test_iter_scalars;
          Alcotest.test_case "json and csv" `Quick test_registry_json_csv;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "string round trip" `Quick test_json_string_roundtrip;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "capacity 0 disabled" `Quick test_ring_disabled;
          Alcotest.test_case "phases" `Quick test_ring_phases;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "well-formed JSON" `Quick test_chrome_wellformed;
          Alcotest.test_case "link upset named fault.link" `Quick test_link_upset_exports_as_link;
          Alcotest.test_case "wrapped rings noted" `Quick test_chrome_reports_wrap;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "disabled registers nothing" `Quick test_disabled_registers_nothing;
          Alcotest.test_case "engine metrics" `Quick test_engine_metrics;
          Alcotest.test_case "noc metrics" `Quick test_noc_metrics;
          Alcotest.test_case "minbft replicate metrics" `Quick test_minbft_replicate_metrics;
          Alcotest.test_case "batch sizes counted once" `Quick
            test_batch_size_counts_each_batch_once;
          Alcotest.test_case "trace spans pair up" `Quick test_trace_spans_pair_up;
        ] );
      qsuite "determinism" [ prop_tracing_is_transparent ];
    ]
