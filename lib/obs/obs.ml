let metrics_on = ref false

let trace_on = ref false

let trace_capacity = ref 65536

let enable_metrics () = metrics_on := true

let enable_tracing ?capacity () =
  (match capacity with
  | Some c ->
    if c <= 0 then invalid_arg "Obs.enable_tracing: capacity must be positive";
    trace_capacity := c
  | None -> ());
  trace_on := true

let disable () =
  metrics_on := false;
  trace_on := false

type t = { metrics : Registry.t; ring : Ring.t }

(* Instances created on this domain since the last [begin_replicate],
   newest first. Domain-local so parallel campaign workers never share
   state: a replicate runs entirely on one domain and snapshots exactly
   the instances it created, whichever worker picked it up. *)
let collected : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let create () =
  let inst =
    {
      metrics = Registry.create ();
      ring = Ring.create ~capacity:(if !trace_on then !trace_capacity else 0);
    }
  in
  if !metrics_on || !trace_on then begin
    let l = Domain.DLS.get collected in
    l := inst :: !l
  end;
  inst

(* Flush hooks run (in registration order) just before a trace export,
   letting instrumented components emit closing samples — e.g. the NoC's
   final per-link load snapshot. Domain-local and reset per replicate,
   like [collected]. *)
let flush_hooks : (unit -> unit) list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let on_flush f =
  let l = Domain.DLS.get flush_hooks in
  l := f :: !l

let begin_replicate () =
  Domain.DLS.get collected := [];
  Domain.DLS.get flush_hooks := []

let domain_instances () = List.rev !(Domain.DLS.get collected)

module Cat = struct
  let des = 0

  let noc_link = 1

  let noc_drop = 2

  let repl = 3

  let fault = 4

  let resilience = 5

  let label = function
    | 0 -> "des"
    | 1 | 2 -> "noc"
    | 3 -> "repl"
    | 4 -> "fault"
    | 5 -> "resilience"
    | _ -> "other"
end

let fault_seu = 0

let fault_trojan = 1

let fault_link = 2

let code_request = 0

let code_pre_prepare = 1

let code_prepare = 2

let code_commit = 3

let code_view_change = 5

(* Repl trace ids pack a per-span unique id above the 3-bit phase code;
   see DESIGN.md §6 for the exact layouts. *)
let repl_request_span ~replica ~client ~rid =
  (((((replica lsl 8) lor (client land 0xff)) lsl 20) lor (rid land 0xfffff)) lsl 3) lor code_request

let repl_counter_span ~replica ~counter =
  ((((replica lsl 32) lor (counter land 0xffffffff)) lsl 3)) lor code_commit

let repl_event ~replica ~code = (replica lsl 3) lor code

let code_down = 0

let code_restart = 1

let code_relocate = 2

let code_relocate_failed = 3

let code_compromise = 4

let code_safety_lost = 5

let resilience_event = repl_event

let pack_origin ~x ~y = (x lsl 16) lor (y land 0xffff)

let repl_code_name = function
  | 0 -> "request"
  | 1 -> "pre-prepare"
  | 2 -> "prepare"
  | 3 -> "commit"
  | 4 -> "reply"
  | 5 -> "view-change"
  | 6 -> "new-view"
  | _ -> "repl"

let resilience_code_name = function
  | 0 -> "rejuvenation.down"
  | 1 -> "rejuvenation.restart"
  | 2 -> "fabric.relocate"
  | 3 -> "fabric.relocate-failed"
  | 4 -> "apt.compromise"
  | 5 -> "safety.lost"
  | _ -> "resilience"

let resilience_detail ~id ~arg =
  let replica = id lsr 3 in
  match id land 7 with
  | 1 | 4 -> Printf.sprintf "replica %d variant %d" replica arg
  | 2 -> Printf.sprintf "replica %d origin (%d,%d)" replica (arg lsr 16) (arg land 0xffff)
  | 5 -> Printf.sprintf "more than f=%d compromised" arg
  | _ -> Printf.sprintf "replica %d" replica

let default_name ~cat ~id =
  if cat = Cat.noc_link then "noc.link." ^ string_of_int id
  else if cat = Cat.noc_drop then "noc.drop"
  else if cat = Cat.repl then repl_code_name (id land 7)
  else if cat = Cat.fault then
    (match id with 0 -> "fault.seu" | 1 -> "fault.trojan" | 2 -> "fault.link" | _ -> "fault.inject")
  else if cat = Cat.resilience then resilience_code_name (id land 7)
  else "des"

(* Merge scalars across this domain's instances, preserving first-seen
   order so the result is a pure function of the replicate. *)
let merged_scalars () =
  let order = ref [] in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun inst ->
      Registry.iter_scalars inst.metrics (fun name ~gauge v ->
          match Hashtbl.find_opt tbl name with
          | None ->
            Hashtbl.replace tbl name v;
            order := name :: !order
          | Some prev -> Hashtbl.replace tbl name (if gauge then v else prev + v)))
    (domain_instances ());
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let replicate_metrics () =
  List.map (fun (n, v) -> ("obs." ^ n, float_of_int v)) (merged_scalars ())

let metrics_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"resoc-obs/1\",\"metrics\":{";
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf n;
      Printf.bprintf buf ":%d" v)
    (merged_scalars ());
  Buffer.add_string buf "}}\n";
  Buffer.contents buf

let write_trace path =
  List.iter (fun f -> f ()) (List.rev !(Domain.DLS.get flush_hooks));
  let rings = List.map (fun i -> i.ring) (domain_instances ()) in
  let s = Chrome.to_string ~rings ~name:default_name ~cat_label:Cat.label () in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s);
  Chrome.dropped rings
