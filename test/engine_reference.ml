(* Reference model for the oracle test in test_des: the event queue that
   [Resoc_des.Engine] must behave like, written as plainly as possible. One
   list holds every pending event sorted by (time, global seq), where seq
   counts every schedule ever made; cancellation is lazy with the engine's
   purge rule, so [pending] counts dead events until they are popped or
   purged. It is slow on purpose; the two-level engine must match it event
   for event. *)

type event = {
  time : int;
  seq : int;
  action : unit -> unit;
  mutable dead : bool;
  mutable queued : bool;
}

type handle = event

type t = {
  mutable now : int;
  mutable seq : int;
  mutable queue : event list;
  mutable n_dead : int;
  mutable processed : int;
  mutable purges : int;
}

let create () = { now = 0; seq = 0; queue = []; n_dead = 0; processed = 0; purges = 0 }

let now t = t.now

let pending t = List.length t.queue

let events_processed t = t.processed

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let at t ~time action =
  if time < t.now then invalid_arg "Engine.at: time is in the past";
  let ev = { time; seq = t.seq; action; dead = false; queued = true } in
  t.seq <- t.seq + 1;
  let rec insert = function
    | x :: rest when before x ev -> x :: insert rest
    | rest -> ev :: rest
  in
  t.queue <- insert t.queue;
  ev

let schedule t ~delay action = at t ~time:(t.now + delay) action

(* Each tick re-arms after its action, one period after the previous tick. *)
let every t ~period ?start action =
  let rec arm time =
    ignore
      (at t ~time (fun () ->
           action ();
           arm (time + period)))
  in
  arm (match start with Some s -> s | None -> t.now + period)

(* Purge: more than 64 dead and more than half of all queued events. *)
let cancel t ev =
  if ev.queued && not ev.dead then begin
    ev.dead <- true;
    t.n_dead <- t.n_dead + 1;
    if t.n_dead > 64 && 2 * t.n_dead > pending t then begin
      List.iter (fun ev -> if ev.dead then ev.queued <- false) t.queue;
      t.queue <- List.filter (fun ev -> not ev.dead) t.queue;
      t.n_dead <- 0;
      t.purges <- t.purges + 1
    end
  end

let step t =
  match t.queue with
  | [] -> false
  | ev :: rest ->
    t.queue <- rest;
    ev.queued <- false;
    if ev.dead then t.n_dead <- t.n_dead - 1
    else begin
      t.now <- ev.time;
      t.processed <- t.processed + 1;
      ev.action ()
    end;
    true

(* Pops, dead or alive, count against [max_events]. The clock moves to
   [until] only once nothing queued is due by then. *)
let run ?until ?max_events t =
  let horizon = Option.value until ~default:max_int in
  let budget = ref (Option.value max_events ~default:max_int) in
  let due () = match t.queue with ev :: _ -> ev.time <= horizon | [] -> false in
  while !budget > 0 && due () do
    decr budget;
    ignore (step t)
  done;
  match until with Some u when t.now < u && not (due ()) -> t.now <- u | Some _ | None -> ()
