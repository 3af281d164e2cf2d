module Json = Resoc_obs.Json

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

let filename t = Printf.sprintf "FAIL_%s_%Ld.json" t.experiment t.seed

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
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc;
  path

let of_json text =
  let fields =
    match Json.parse text with Json.Obj f -> f | _ -> failwith "Replay.of_json: expected an object"
  in
  let get name =
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> failwith ("Replay.of_json: missing field " ^ name)
  in
  let str name = match get name with Json.String s -> s | _ -> failwith ("Replay.of_json: " ^ name) in
  let int64 name = match get name with Json.Int i -> i | _ -> failwith ("Replay.of_json: " ^ name) in
  let int name = Int64.to_int (int64 name) in
  (match get "schema" with
  | Json.String "resoc-fail/1" -> ()
  | _ -> failwith "Replay.of_json: unsupported schema");
  let keep =
    match get "keep" with
    | Json.List l -> List.map (function Json.Int i -> Int64.to_int i | _ -> failwith "Replay.of_json: keep") l
    | _ -> failwith "Replay.of_json: keep"
  in
  let events =
    match get "events" with
    | Json.List l ->
      List.map
        (function
          | Json.Obj e ->
            let f name = match List.assoc_opt name e with Some v -> v | None -> failwith ("Replay.of_json: event." ^ name) in
            let num name = match f name with Json.Int i -> Int64.to_int i | _ -> failwith ("Replay.of_json: event." ^ name) in
            {
              kind = (match f "kind" with Json.String k -> Inject.kind_of_name k | _ -> failwith "Replay.of_json: event.kind");
              time = num "time";
              a = num "a";
              b = num "b";
              kept = (match f "kept" with Json.Bool b -> b | _ -> failwith "Replay.of_json: event.kept");
            }
          | _ -> failwith "Replay.of_json: events")
        l
    | _ -> failwith "Replay.of_json: events"
  in
  {
    experiment = str "experiment";
    cell = str "cell";
    seed = int64 "seed";
    error = str "error";
    total_events = int "total_events";
    keep;
    events;
  }

let read path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_json text
