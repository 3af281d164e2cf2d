(* Self-time accounting around the calls a protocol makes into its
   transport and the handlers the transport calls back. Spans nest (a
   replica handler sends, a send may deliver locally), so each span's self
   time is its duration minus the spans it encloses; what [Engine.run]
   spends outside every span — dispatch, timers, NoC hop traversal — is
   the DES residual. Two clock reads per span, no allocation. *)

module Transport = Resoc_repl.Transport

let replica = 0
let client = 1
let send = 2
let n_categories = 3
let max_depth = 64

type t = {
  self_ns : int array;
  calls : int array;
  start_ns : int array;  (* per open span, by depth *)
  child_ns : int array;
  mutable depth : int;
}

let create () =
  {
    self_ns = Array.make n_categories 0;
    calls = Array.make n_categories 0;
    start_ns = Array.make max_depth 0;
    child_ns = Array.make max_depth 0;
    depth = 0;
  }

let total_self_ns t = Array.fold_left ( + ) 0 t.self_ns

let enter t =
  let d = t.depth in
  t.start_ns.(d) <- Measure.now_ns ();
  t.child_ns.(d) <- 0;
  t.depth <- d + 1

let leave t category =
  let d = t.depth - 1 in
  t.depth <- d;
  let elapsed = Measure.now_ns () - t.start_ns.(d) in
  t.self_ns.(category) <- t.self_ns.(category) + elapsed - t.child_ns.(d);
  t.calls.(category) <- t.calls.(category) + 1;
  if d > 0 then t.child_ns.(d - 1) <- t.child_ns.(d - 1) + elapsed

(* Endpoints [0, n_replicas) are replicas and the rest clients, the
   numbering every protocol uses. *)
let wrap t ~n_replicas (fabric : 'msg Transport.fabric) : 'msg Transport.fabric =
  let sender ~src ~dst msg =
    enter t;
    fabric.Transport.send ~src ~dst msg;
    leave t send
  in
  let multicast =
    Option.map
      (fun mc ~src ~dsts ~n msg ->
        enter t;
        mc ~src ~dsts ~n msg;
        leave t send)
      fabric.Transport.multicast
  in
  let set_handler endpoint handler =
    let category = if endpoint < n_replicas then replica else client in
    fabric.Transport.set_handler endpoint (fun ~src msg ->
        enter t;
        handler ~src msg;
        leave t category)
  in
  { fabric with Transport.send = sender; multicast; set_handler }
