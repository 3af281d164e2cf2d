module Obs = Resoc_obs.Obs
module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Replay = Resoc_check.Replay

type metrics = (string * float) list

type trial = Completed of metrics | Failed of Pool.failure

type cell = {
  id : string;
  params : (string * string) list;
  run : seed:int64 -> metrics;
}

let cell ?(params = []) id run = { id; params; run }

type config = {
  root_seed : int64;
  replicates : int;
  jobs : int;
  progress : bool;
  check : bool;
  shrink : bool;
  fail_dir : string option;
}

let default_config =
  {
    root_seed = 0x5EEDL;
    replicates = 16;
    jobs = 1;
    progress = false;
    check = false;
    shrink = false;
    fail_dir = None;
  }

type aggregate = {
  cell_id : string;
  params : (string * string) list;
  seeds : int64 array;
  trials : trial array;
}

type result = {
  id : string;
  title : string;
  root_seed : int64;
  replicates : int;
  cells : aggregate list;
}

(* Re-execute one failing replicate on the calling domain, after the pool
   has drained, until ddmin lands on a locally minimal injection schedule,
   then emit the FAIL record. *)
let shrink_failure ~fail_dir ~campaign_id (cell : cell) ~seed =
  match
    Replay.shrink ~experiment:campaign_id ~cell:cell.id ~seed (fun () ->
        ignore (cell.run ~seed))
  with
  | None ->
    Printf.eprintf
      "campaign %s: cell %s seed %Ld failed in the pool but not on re-run; not shrinking\n%!"
      campaign_id cell.id seed
  | Some record ->
    let wrote = match fail_dir with Some dir -> "; wrote " ^ Replay.write ~dir record | None -> "" in
    Printf.eprintf "campaign %s: cell %s seed %Ld shrunk %d -> %d injection events%s\n%!"
      campaign_id cell.id seed record.total_events (List.length record.keep) wrote

let run ?(config = default_config) ~id ~title cells =
  if config.replicates < 1 then invalid_arg "Campaign.run: replicates must be >= 1";
  Printexc.record_backtrace true;
  let grid = Array.of_list cells in
  let reps = config.replicates in
  let total = Array.length grid * reps in
  let seed_of index =
    Seed_tree.replicate_seed ~root:config.root_seed ~cell:(index / reps)
      ~replicate:(index mod reps)
  in
  let progress =
    if config.progress && total > 0 then Some (Progress.create ~label:id ~total) else None
  in
  let on_done =
    Option.map (fun p -> fun ~completed ~total -> Progress.tick p ~completed ~total) progress
  in
  let raw =
    Pool.map ~jobs:config.jobs ?on_done total (fun index ->
        let cell = grid.(index / reps) in
        (* A replicate runs wholly on one worker domain, so the domain-local
           instance list snapshots exactly this replicate's instruments —
           deterministic whichever worker picked it up. *)
        if config.check then begin
          Check.begin_replicate ();
          Inject.begin_replicate ()
        end;
        if !Obs.metrics_on then begin
          Obs.begin_replicate ();
          let m = cell.run ~seed:(seed_of index) in
          m @ Obs.replicate_metrics ()
        end
        else cell.run ~seed:(seed_of index))
  in
  Option.iter Progress.finish progress;
  if config.check && config.shrink then
    Array.iteri
      (fun index -> function
        | Ok _ -> ()
        | Error _ ->
          shrink_failure ~fail_dir:config.fail_dir ~campaign_id:id grid.(index / reps)
            ~seed:(seed_of index))
      raw;
  let cells =
    List.mapi
      (fun c (cell : cell) ->
        {
          cell_id = cell.id;
          params = cell.params;
          seeds = Array.init reps (fun r -> seed_of ((c * reps) + r));
          trials =
            Array.init reps (fun r ->
                match raw.((c * reps) + r) with
                | Ok m -> Completed m
                | Error f -> Failed f);
        })
      cells
  in
  { id; title; root_seed = config.root_seed; replicates = reps; cells }

let failures agg =
  Array.fold_left
    (fun acc -> function Failed _ -> acc + 1 | Completed _ -> acc)
    0 agg.trials

let completed_values agg key =
  Array.to_list agg.trials
  |> List.filter_map (function
       | Completed m -> List.assoc_opt key m
       | Failed _ -> None)
  |> Array.of_list

let metric agg key = Stats.summarize (completed_values agg key)

let fraction agg key =
  Stats.survival (Array.map (fun v -> v > 0.5) (completed_values agg key))

let metric_keys agg =
  Array.fold_left
    (fun acc -> function
      | Failed _ -> acc
      | Completed m ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc m)
    [] agg.trials
