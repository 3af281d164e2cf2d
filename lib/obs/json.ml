(* The one JSON string escaper behind every hand-rolled writer (metrics,
   traces, campaign emit, FAIL schedules), and the one reader. *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Recursive descent over RFC 8259. Integer literals stay exact int64
   (seeds use the whole range); a fraction or exponent, or an integer
   past the int64 range, makes a float. *)
let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Json.parse: %s at offset %d" msg !pos) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
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
  let hex4 () =
    if !pos + 4 > len then fail "short unicode escape";
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad unicode escape"
      in
      code := (!code * 16) + d;
      advance ()
    done;
    !code
  in
  (* After the "\u": one code point, a surrogate pair taking a second
     escape; a lone surrogate is rejected. *)
  let unicode buf =
    let hi = hex4 () in
    let code =
      if hi >= 0xD800 && hi <= 0xDBFF then begin
        if not (!pos + 1 < len && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then fail "lone surrogate";
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail "lone surrogate";
        0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone surrogate"
      else hi
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
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
        let c = peek () in
        advance ();
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char buf c
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> unicode buf
        | _ -> fail "unknown escape");
        loop ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let digits () =
    let start = !pos in
    while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
      advance ()
    done;
    if !pos = start then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    if peek () = '0' then advance () else digits ();
    let integral = ref true in
    if peek () = '.' then begin
      integral := false;
      advance ();
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      integral := false;
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    match if !integral then Int64.of_string_opt text else None with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else
        let rec members acc =
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((key, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements (v :: acc)
          | ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing input";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None
