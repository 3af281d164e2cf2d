(* The experiment suite as users run it: bench/main.exe once per
   experiment id at --seeds 4 --jobs 1, each in its own process. The root
   seed stays at the binary's default, so every pass reproduces the tables
   users see; the benchmark seed only shuffles the order the experiments
   run in. The children print their GC totals at exit (OCAMLRUNPARAM
   v=0x400), which is where allocation and heap figures come from. *)

type child = {
  id : string;
  wall_s : float;
  status : Unix.process_status;
  stdout_digest : string;
  json_digests : string;  (** Every BENCH file the experiment wrote. *)
  gc : (string * float) list;  (** The child's exit-time GC totals. *)
}

let main_exe () =
  let benchmark_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname benchmark_dir) (Filename.concat "bench" "main.exe")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let gc_env () =
  let param =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | Some p when p <> "" -> p ^ ",v=0x400"
    | _ -> "v=0x400"
  in
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
          (Array.to_list (Unix.environment ()))))
    [| "OCAMLRUNPARAM=" ^ param |]

(* Run [args] with stdout and stderr sent to files; waits for the child. *)
let spawn ~env ~stdout ~stderr args =
  let fd path = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let out = fd stdout and err = fd stderr in
  let t0 = Measure.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process_env args.(0) args env Unix.stdin out err)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  (status, Measure.seconds_since t0)

let parse_gc text =
  List.filter_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ key; value ] -> Option.map (fun v -> (key, v)) (float_of_string_opt (String.trim value))
      | _ -> None)
    (String.split_on_char '\n' text)

(* [main.exe --list]: the experiment ids, and the seconds the process took
   to start, print them and exit, which is the set-up every suite
   experiment pays before it simulates anything. *)
let list_experiments ~exe ~scratch =
  let out = Filename.concat scratch "list.out" in
  let status, seconds =
    spawn ~env:(Unix.environment ()) ~stdout:out ~stderr:(out ^ ".err") [| exe; "--list" |]
  in
  if status <> Unix.WEXITED 0 then failwith (exe ^ " --list failed");
  let ids =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | id :: _ when id <> "" -> Some id
        | _ -> None)
      (String.split_on_char '\n' (read_file out))
  in
  (ids, seconds)

let run_child ~exe ~scratch id =
  let dir = Filename.concat scratch id in
  if Sys.file_exists dir then remove dir;
  mkdir_p dir;
  let stdout = Filename.concat dir "stdout" and stderr = Filename.concat dir "stderr" in
  let status, wall_s =
    spawn ~env:(gc_env ()) ~stdout ~stderr
      [|
        exe; id; "--seeds"; "4"; "--jobs"; "1"; "--no-bechamel"; "--no-progress"; "--csv";
        "--json-dir"; dir;
      |]
  in
  let bench_files =
    List.sort compare
      (List.filter
         (fun f -> String.starts_with ~prefix:"BENCH_" f)
         (Array.to_list (Sys.readdir dir)))
  in
  {
    id;
    wall_s;
    status;
    stdout_digest = Digest.to_hex (Digest.file stdout);
    json_digests =
      String.concat " "
        (List.map
           (fun f -> f ^ ":" ^ Digest.to_hex (Digest.file (Filename.concat dir f)))
           bench_files);
    gc = parse_gc (read_file stderr);
  }

let csv_path ~scratch id = Filename.concat (Filename.concat scratch id) ("BENCH_" ^ id ^ ".csv")

(* One column of a campaign CSV written under [scratch]. *)
let csv_column ~scratch id column =
  let path = csv_path ~scratch id in
  match String.split_on_char '\n' (String.trim (read_file path)) with
  | [] -> failwith (path ^ ": empty")
  | header :: rows -> (
    match List.find_index (String.equal column) (String.split_on_char ',' header) with
    | None -> failwith (path ^ ": no " ^ column ^ " column")
    | Some i -> List.map (fun row -> List.nth (String.split_on_char ',' row) i) rows)

(* Campaign trials that did not complete; experiments without a campaign
   write no CSV and have none. *)
let failed_trials ~scratch id =
  if not (Sys.file_exists (csv_path ~scratch id)) then 0
  else List.length (List.filter (( <> ) "completed") (csv_column ~scratch id "status"))

(* E2's per-replicate request-latency p99 (simulated cycles): the suite's
   one simulated-latency output. *)
let e2_latencies ~scratch =
  let h = Resoc_des.Metrics.Histogram.create "e2.lat_p99" in
  List.iter
    (fun v -> Resoc_des.Metrics.Histogram.add h (float_of_string v))
    (csv_column ~scratch "e2" "lat_p99");
  h
