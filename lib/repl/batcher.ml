module Engine = Resoc_des.Engine
module Obs = Resoc_obs.Obs
module Registry = Resoc_obs.Registry

(* Mutation knob for the checker's batch-atomicity invariant: re-inject
   the first request of every sealed batch into the next one, so one
   request is agreed (and committed) in two distinct instances of the
   same view — exactly what the invariant forbids. Injected after the
   protocol's dedup filters (those act on [add]), so the duplicate
   provably reaches agreement. *)
let test_duplicate_first = ref false

(* Every attach site asks [active] before building a batcher, so an
   invalid config is refused here even when it would stay inert. *)
let active (b : Types.batching) =
  if b.Types.max_batch < 1 || b.Types.window_cycles < 0 || b.Types.pipeline_depth < 1 then
    invalid_arg
      (Printf.sprintf
         "Batcher: invalid batching {window_cycles = %d; max_batch = %d; pipeline_depth = %d}: \
          need max_batch >= 1, window_cycles >= 0, pipeline_depth >= 1"
         b.Types.window_cycles b.Types.max_batch b.Types.pipeline_depth);
  b.Types.max_batch > 1 || b.Types.window_cycles > 0

type t = {
  engine : Engine.t;
  window : int;
  max_batch : int;
  seal : Types.request list -> unit;  (* order one batch, arrival order *)
  ready : unit -> bool;  (* pipeline gate: may another instance start? *)
  occupancy : unit -> int;  (* in-flight instances, for the histogram *)
  mutable buffer : Types.request list;  (* newest first *)
  mutable len : int;
  mutable flush_scheduled : bool;
  mutable carry : Types.request option;  (* knob: duplicate for next batch *)
  obs : Obs.t;
  obs_size : Registry.histogram;
  obs_occ : Registry.histogram;
}

let create ~engine ~(cfg : Types.batching) ~seal ~ready ~occupancy =
  let obs = Engine.obs engine in
  let obs_size, obs_occ =
    if !Obs.metrics_on then
      ( Registry.histogram obs.Obs.metrics "repl.batch_size" ~bounds:[| 1; 2; 4; 8; 16; 32 |],
        Registry.histogram obs.Obs.metrics "repl.pipeline_occupancy"
          ~bounds:[| 0; 1; 2; 4; 8; 16 |] )
    else (Registry.null_histogram, Registry.null_histogram)
  in
  {
    engine;
    window = cfg.Types.window_cycles;
    max_batch = cfg.Types.max_batch;
    seal;
    ready;
    occupancy;
    buffer = [];
    len = 0;
    flush_scheduled = false;
    carry = None;
    obs;
    obs_size;
    obs_occ;
  }

let buffered t = t.len

(* Take the oldest [n] buffered requests, arrival order. *)
let take t n =
  let rec split i acc rest =
    if i = 0 then (List.rev acc, rest)
    else match rest with x :: tl -> split (i - 1) (x :: acc) tl | [] -> (List.rev acc, [])
  in
  let batch, rest = split n [] (List.rev t.buffer) in
  t.buffer <- List.rev rest;
  t.len <- t.len - n;
  batch

(* Seal as many batches as the backlog and the pipeline gate allow. The
   gate is re-consulted per batch: each seal puts one more instance in
   flight, so a deep backlog drains in [pipeline_depth]-bounded steps as
   execution (or a checkpoint advance) kicks the batcher again. *)
let rec flush t =
  if t.len > 0 && t.ready () then begin
    let batch = take t (min t.len t.max_batch) in
    let fresh_first = match batch with q :: _ -> Some q | [] -> None in
    let batch = match t.carry with Some q -> q :: batch | None -> batch in
    t.carry <- (if !test_duplicate_first then fresh_first else None);
    if !Obs.metrics_on then begin
      Registry.observe t.obs.Obs.metrics t.obs_size (List.length batch);
      Registry.observe t.obs.Obs.metrics t.obs_occ (t.occupancy ())
    end;
    t.seal batch;
    flush t
  end

let add t req =
  t.buffer <- req :: t.buffer;
  t.len <- t.len + 1;
  if t.len >= t.max_batch || t.window = 0 then flush t
  else if not t.flush_scheduled then begin
    t.flush_scheduled <- true;
    ignore
      (Engine.schedule t.engine ~delay:t.window (fun () ->
           t.flush_scheduled <- false;
           flush t))
  end

let kick t = if t.len > 0 then flush t

let clear t =
  t.buffer <- [];
  t.len <- 0;
  t.carry <- None
