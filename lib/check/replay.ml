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

(* Reader — a minimal recursive-descent JSON parser; FAIL files contain only
   objects, arrays, strings, integers and booleans. *)

type json = Jnull | Jbool of bool | Jint of int64 | Jstr of string | Jlist of json list | Jobj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = failwith (Printf.sprintf "Replay.of_json: %s at offset %d" msg !pos) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < len then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 32 in
    let rec loop () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= len then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           if !pos + 4 >= len then fail "short unicode escape";
           let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
           (* FAIL files only escape control characters, so one byte is enough. *)
           Buffer.add_char buf (Char.chr (code land 0xff));
           pos := !pos + 5
         | _ -> fail "unknown escape");
        loop ()
      | c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = '-' then advance ();
    while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
      advance ()
    done;
    if !pos = start then fail "expected number";
    Jint (Int64.of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin advance (); Jobj [] end
      else begin
        let rec members acc =
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
          | '}' -> advance (); List.rev ((key, v) :: acc)
          | _ -> fail "expected , or }"
        in
        members []
        |> fun fields -> Jobj fields
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin advance (); Jlist [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Jlist (elements [])
      end
    | '"' -> Jstr (parse_string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
    | _ -> parse_int ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing input";
  v

let of_json text =
  let fields =
    match parse_json text with Jobj f -> f | _ -> failwith "Replay.of_json: expected an object"
  in
  let get name =
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> failwith ("Replay.of_json: missing field " ^ name)
  in
  let str name = match get name with Jstr s -> s | _ -> failwith ("Replay.of_json: " ^ name) in
  let int64 name = match get name with Jint i -> i | _ -> failwith ("Replay.of_json: " ^ name) in
  let int name = Int64.to_int (int64 name) in
  (match get "schema" with
  | Jstr "resoc-fail/1" -> ()
  | _ -> failwith "Replay.of_json: unsupported schema");
  let keep =
    match get "keep" with
    | Jlist l -> List.map (function Jint i -> Int64.to_int i | _ -> failwith "Replay.of_json: keep") l
    | _ -> failwith "Replay.of_json: keep"
  in
  let events =
    match get "events" with
    | Jlist l ->
      List.map
        (function
          | Jobj e ->
            let f name = match List.assoc_opt name e with Some v -> v | None -> failwith ("Replay.of_json: event." ^ name) in
            let num name = match f name with Jint i -> Int64.to_int i | _ -> failwith ("Replay.of_json: event." ^ name) in
            {
              kind = (match f "kind" with Jstr k -> Inject.kind_of_name k | _ -> failwith "Replay.of_json: event.kind");
              time = num "time";
              a = num "a";
              b = num "b";
              kept = (match f "kept" with Jbool b -> b | _ -> failwith "Replay.of_json: event.kept");
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
