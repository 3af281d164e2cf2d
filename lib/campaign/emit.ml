(* Hand-rolled JSON/CSV writers: the container has no JSON dependency, and
   the format is small and fixed. Output is kept a pure function of the
   campaign result so reruns diff cleanly. *)

module Json = Resoc_obs.Json

let float_repr v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let add_float buf v = Buffer.add_string buf (float_repr v)

let add_assoc buf add_value pairs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    pairs;
  Buffer.add_char buf '}'

let add_summary buf (s : Stats.summary) =
  add_assoc buf add_float
    [
      ("n", float_of_int s.Stats.n);
      ("mean", s.Stats.mean);
      ("stddev", s.Stats.stddev);
      ("min", s.Stats.min);
      ("max", s.Stats.max);
      ("ci95", s.Stats.ci95);
    ]

let add_trial buf ~replicate ~seed (trial : Campaign.trial) =
  Buffer.add_char buf '{';
  Buffer.add_string buf "\"replicate\":";
  Buffer.add_string buf (string_of_int replicate);
  Buffer.add_string buf ",\"seed\":";
  Json.add_string buf (Int64.to_string seed);
  (match trial with
  | Campaign.Completed m ->
    Buffer.add_string buf ",\"status\":\"completed\",\"metrics\":";
    add_assoc buf add_float m
  | Campaign.Failed f ->
    Buffer.add_string buf ",\"status\":\"failed\",\"error\":";
    Json.add_string buf f.Pool.error);
  Buffer.add_char buf '}'

let add_cell buf (agg : Campaign.aggregate) =
  Buffer.add_char buf '{';
  Buffer.add_string buf "\"id\":";
  Json.add_string buf agg.Campaign.cell_id;
  Buffer.add_string buf ",\"params\":";
  add_assoc buf Json.add_string agg.Campaign.params;
  Buffer.add_string buf ",\"failures\":";
  Buffer.add_string buf (string_of_int (Campaign.failures agg));
  Buffer.add_string buf ",\"stats\":";
  add_assoc buf add_summary
    (List.map (fun k -> (k, Campaign.metric agg k)) (Campaign.metric_keys agg));
  Buffer.add_string buf ",\"trials\":[";
  Array.iteri
    (fun r trial ->
      if r > 0 then Buffer.add_char buf ',';
      add_trial buf ~replicate:r ~seed:agg.Campaign.seeds.(r) trial)
    agg.Campaign.trials;
  Buffer.add_string buf "]}"

let render_json (result : Campaign.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"id\":";
  Json.add_string buf result.Campaign.id;
  Buffer.add_string buf ",\"title\":";
  Json.add_string buf result.Campaign.title;
  Buffer.add_string buf ",\"root_seed\":";
  Json.add_string buf (Int64.to_string result.Campaign.root_seed);
  Buffer.add_string buf ",\"replicates\":";
  Buffer.add_string buf (string_of_int result.Campaign.replicates);
  Buffer.add_string buf ",\"cells\":[";
  List.iteri
    (fun i agg ->
      if i > 0 then Buffer.add_char buf ',';
      add_cell buf agg)
    result.Campaign.cells;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content);
  path

let json_file ~dir result =
  write_file (Filename.concat dir ("BENCH_" ^ result.Campaign.id ^ ".json")) (render_json result)

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_csv (result : Campaign.result) =
  let param_keys =
    List.fold_left
      (fun acc (agg : Campaign.aggregate) ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc agg.Campaign.params)
      [] result.Campaign.cells
  in
  let metric_cols =
    List.fold_left
      (fun acc agg ->
        List.fold_left
          (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
          acc (Campaign.metric_keys agg))
      [] result.Campaign.cells
  in
  let buf = Buffer.create 4096 in
  let emit_row cols =
    Buffer.add_string buf (String.concat "," (List.map csv_quote cols));
    Buffer.add_char buf '\n'
  in
  emit_row
    ([ "cell"; "replicate"; "seed"; "status" ] @ param_keys @ metric_cols);
  List.iter
    (fun (agg : Campaign.aggregate) ->
      Array.iteri
        (fun r trial ->
          let params =
            List.map
              (fun k -> Option.value ~default:"" (List.assoc_opt k agg.Campaign.params))
              param_keys
          in
          let status, metrics =
            match trial with
            | Campaign.Completed m ->
              ( "completed",
                List.map
                  (fun k ->
                    match List.assoc_opt k m with
                    | Some v -> float_repr v
                    | None -> "")
                  metric_cols )
            | Campaign.Failed _ -> ("failed", List.map (fun _ -> "") metric_cols)
          in
          emit_row
            ([
               agg.Campaign.cell_id;
               string_of_int r;
               Int64.to_string agg.Campaign.seeds.(r);
               status;
             ]
            @ params @ metrics))
        agg.Campaign.trials)
    result.Campaign.cells;
  Buffer.contents buf

let csv_file ~dir result =
  write_file (Filename.concat dir ("BENCH_" ^ result.Campaign.id ^ ".csv")) (render_csv result)
