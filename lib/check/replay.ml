module Json = Resoc_obs.Json
module Obs = Resoc_obs.Obs

type event = { kind : Inject.kind; time : int; a : int; b : int; kept : bool }

type t = {
  experiment : string;
  cell : string;
  seed : int64;
  error : string;
  total_events : int;
  keep : int list;
  events : event list;
}

let filename t =
  let safe = function
    | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-') as c -> c
    | _ -> '_'
  in
  Printf.sprintf "FAIL_%s_%s_%Ld.json" t.experiment (String.map safe t.cell) t.seed

(* Writer — same hand-rolled style as Emit/Obs, on the shared escaper. *)

let to_json t =
  let buf = Buffer.create 1024 in
  let field name =
    Buffer.add_string buf "  ";
    Json.add_string buf name;
    Buffer.add_string buf ": "
  in
  Buffer.add_string buf "{\n";
  field "schema";
  Buffer.add_string buf "\"resoc-fail/1\",\n";
  field "experiment";
  Json.add_string buf t.experiment;
  Buffer.add_string buf ",\n";
  field "cell";
  Json.add_string buf t.cell;
  Buffer.add_string buf ",\n";
  field "seed";
  Buffer.add_string buf (Printf.sprintf "%Ld,\n" t.seed);
  field "error";
  Json.add_string buf t.error;
  Buffer.add_string buf ",\n";
  field "total_events";
  Buffer.add_string buf (Printf.sprintf "%d,\n" t.total_events);
  field "keep";
  Buffer.add_string buf "[";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (string_of_int k))
    t.keep;
  Buffer.add_string buf "],\n";
  field "events";
  Buffer.add_string buf "[";
  List.iteri
    (fun i (e : event) ->
      Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
      Buffer.add_string buf
        (Printf.sprintf "{\"kind\": \"%s\", \"time\": %d, \"a\": %d, \"b\": %d, \"kept\": %b}"
           (Inject.kind_name e.kind) e.time e.a e.b e.kept))
    t.events;
  Buffer.add_string buf (if t.events = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents buf

let write ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename t) in
  Out_channel.with_open_text path (fun oc -> output_string oc (to_json t));
  path

let of_json text =
  let fail what = failwith ("Replay.of_json: " ^ what) in
  let fields = match Json.parse text with Json.Obj f -> f | _ -> fail "expected an object" in
  let get name =
    match List.assoc_opt name fields with Some v -> v | None -> fail ("missing field " ^ name)
  in
  let str name = match get name with Json.String s -> s | _ -> fail name in
  let int64 name = match get name with Json.Int i -> i | _ -> fail name in
  if get "schema" <> Json.String "resoc-fail/1" then fail "unsupported schema";
  let keep =
    match get "keep" with
    | Json.List l -> List.map (function Json.Int i -> Int64.to_int i | _ -> fail "keep") l
    | _ -> fail "keep"
  in
  let event = function
    | Json.Obj e ->
      let f name = match List.assoc_opt name e with Some v -> v | None -> fail ("event." ^ name) in
      let num name = match f name with Json.Int i -> Int64.to_int i | _ -> fail ("event." ^ name) in
      let kind =
        match f "kind" with
        | Json.String k -> (try Inject.kind_of_name k with Invalid_argument m -> failwith m)
        | _ -> fail "event.kind"
      in
      let kept = match f "kept" with Json.Bool b -> b | _ -> fail "event.kept" in
      { kind; time = num "time"; a = num "a"; b = num "b"; kept }
    | _ -> fail "events"
  in
  let events = match get "events" with Json.List l -> List.map event l | _ -> fail "events" in
  {
    experiment = str "experiment";
    cell = str "cell";
    seed = int64 "seed";
    error = str "error";
    total_events = Int64.to_int (int64 "total_events");
    keep;
    events;
  }

let read path = of_json (In_channel.with_open_bin path In_channel.input_all)

(* The driver. Every re-execution starts from fresh per-domain state, so a
   re-run on the calling domain sees exactly what the original run saw. *)

let attempt ?mask run =
  Check.begin_replicate ();
  Inject.begin_replicate ();
  if !Obs.metrics_on then Obs.begin_replicate ();
  (match mask with Some (total, keep) -> Inject.set_mask ~total keep | None -> ());
  match run () with () -> None | exception e -> Some (Printexc.to_string e)

let shrink ~experiment ~cell ~seed run =
  let record =
    match attempt run with
    | None -> None
    | Some unmasked ->
      let total = Inject.count () in
      let test keep = attempt ~mask:(total, keep) run <> None in
      let keep = List.sort_uniq compare (Shrink.ddmin ~test total) in
      let error = Option.value (attempt ~mask:(total, keep) run) ~default:unmasked in
      let events =
        List.mapi
          (fun i (ev : Inject.event) ->
            { kind = ev.kind; time = ev.time; a = ev.a; b = ev.b; kept = List.mem i keep })
          (Inject.events ())
      in
      Some { experiment; cell; seed; error; total_events = total; keep; events }
  in
  (* Leave no mask behind for whatever runs next on this domain. *)
  Check.begin_replicate ();
  Inject.begin_replicate ();
  record
