module Engine = Resoc_des.Engine

type 'msg fabric = {
  n_endpoints : int;
  send : src:int -> dst:int -> 'msg -> unit;
  multicast : (src:int -> dsts:int array -> n:int -> 'msg -> unit) option;
  set_handler : int -> (src:int -> 'msg -> unit) -> unit;
  detach : int -> unit;
  messages_sent : unit -> int;
  bytes_sent : unit -> int;
}

let broadcast fabric ~src ~to_ msg =
  match fabric.multicast with
  | Some mc ->
    let dsts = Array.of_list to_ in
    mc ~src ~dsts ~n:(Array.length dsts) msg
  | None -> List.iter (fun dst -> fabric.send ~src ~dst msg) to_

(* Hub deliveries ride pooled slots: per slot a (src, dst) pair, the
   payload, and a fire closure built once and reused — so a send stores
   two ints and the payload and pushes a slot into the engine, and
   allocates nothing. A slot with no message in it holds the first
   payload ever sent ([filler]), so a delivered message is not kept
   reachable. The slot is released before the handler runs, so a
   handler that sends can reuse it immediately. *)
let hub engine ~n ?(latency = 5) ?(size_of = fun _ -> 64) ?(multicast = false) () =
  if n <= 0 then invalid_arg "Transport.hub: need at least one endpoint";
  if latency < 0 then invalid_arg "Transport.hub: negative latency";
  let handlers = Array.make n None in
  let messages = ref 0 in
  let bytes = ref 0 in
  let p_src = ref [||] in
  let p_dst = ref [||] in
  let p_msg = ref [||] in
  let filler = ref [||] in
  let p_fire = ref [||] in
  let p_free_next = ref [||] in
  let free_head = ref (-1) in
  let fire slot =
    let src = (!p_src).(slot) and dst = (!p_dst).(slot) in
    let msg = (!p_msg).(slot) in
    (!p_msg).(slot) <- (!filler).(0);
    (!p_free_next).(slot) <- !free_head;
    free_head := slot;
    match handlers.(dst) with
    | Some handler -> handler ~src msg
    | None -> ()
  in
  let grow () =
    let cap = Array.length !p_src in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let extend a = Array.append a (Array.make (ncap - cap) 0) in
    p_src := extend !p_src;
    p_dst := extend !p_dst;
    let nmsg = Array.make ncap (!filler).(0) in
    Array.blit !p_msg 0 nmsg 0 cap;
    p_msg := nmsg;
    let nfire = Array.make ncap (fun () -> ()) in
    Array.blit !p_fire 0 nfire 0 cap;
    for i = cap to ncap - 1 do
      nfire.(i) <- (fun () -> fire i)
    done;
    p_fire := nfire;
    let nfree = Array.make ncap (-1) in
    Array.blit !p_free_next 0 nfree 0 cap;
    for i = ncap - 1 downto cap do
      nfree.(i) <- !free_head;
      free_head := i
    done;
    p_free_next := nfree
  in
  let send ~src ~dst msg =
    if dst < 0 || dst >= n then invalid_arg "Transport.hub: destination out of range";
    incr messages;
    bytes := !bytes + size_of msg;
    let delay = if src = dst then 1 else latency in
    if Array.length !filler = 0 then filler := [| msg |];
    if !free_head < 0 then grow ();
    let slot = !free_head in
    free_head := (!p_free_next).(slot);
    (!p_src).(slot) <- src;
    (!p_dst).(slot) <- dst;
    (!p_msg).(slot) <- msg;
    ignore (Engine.schedule engine ~delay (!p_fire).(slot))
  in
  {
    n_endpoints = n;
    send;
    (* A hub has no shared physical medium: its multicast is the unicast
       loop, with identical counters — so hub experiments give the same
       numbers in both modes and only exercise the call path. *)
    multicast =
      (if multicast then
         Some
           (fun ~src ~dsts ~n:k msg ->
             for i = 0 to k - 1 do
               send ~src ~dst:dsts.(i) msg
             done)
       else None);
    set_handler = (fun i h -> handlers.(i) <- Some h);
    detach = (fun i -> handlers.(i) <- None);
    messages_sent = (fun () -> !messages);
    bytes_sent = (fun () -> !bytes);
  }
