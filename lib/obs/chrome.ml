let write buf ~first ring ~name ~cat_label =
  Ring.iter ring (fun ~time ~cat ~phase ~id ~arg ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      Json.add_string buf (name ~cat ~id);
      Buffer.add_string buf ",\"cat\":";
      Json.add_string buf (cat_label cat);
      (match phase with
      | Ring.Span_begin -> Buffer.add_string buf ",\"ph\":\"B\""
      | Ring.Span_end -> Buffer.add_string buf ",\"ph\":\"E\""
      | Ring.Instant -> Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\""
      | Ring.Sample -> Buffer.add_string buf ",\"ph\":\"C\""
      | Ring.Async_begin -> Printf.bprintf buf ",\"ph\":\"b\",\"id\":\"0x%x\"" id
      | Ring.Async_end -> Printf.bprintf buf ",\"ph\":\"e\",\"id\":\"0x%x\"" id);
      Printf.bprintf buf ",\"ts\":%d,\"pid\":0,\"tid\":0,\"args\":{\"v\":%d}}" time arg)

let dropped rings = List.fold_left (fun acc r -> acc + Ring.dropped r) 0 rings

(* A trace whose rings wrapped starts mid-run; one metadata record up
   front says how many records were lost, so it cannot pass for a
   complete one. A trace without loss carries no such record. *)
let to_string ~rings ~name ~cat_label () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let lost = dropped rings in
  if lost > 0 then begin
    Printf.bprintf buf
      "{\"name\":\"ring_dropped\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"dropped\":%d}}" lost;
    first := false
  end;
  List.iter (fun r -> write buf ~first r ~name ~cat_label) rings;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
