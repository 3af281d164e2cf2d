module Engine = Resoc_des.Engine
module Histogram = Resoc_des.Metrics.Histogram

(* One request is in flight at a time, so its state lives directly on
   the client and is reset in place per request: no inflight record, no
   votes table, no queue-list reversal. The replies are a voter bitset
   plus one result slot per replica, so tallying a reply is a loop over
   at most n slots with nothing allocated. The retransmission timer is
   one closure per client; it guards on the id of the request it was
   armed for instead of physical equality — rids are unique per client,
   so the checks are equivalent. *)
type 'msg t = {
  engine : Engine.t;
  fabric : 'msg Transport.fabric;
  id : int;
  n_replicas : int;
  replica_ids : int array;
  quorum : int;
  retry_timeout : int;
  stats : Stats.t;
  to_msg : Types.request -> 'msg;
  on_complete : (Types.reply -> unit) option;
  mutable next_rid : int;
  (* pooled in-flight state; valid while [inflight] *)
  mutable inflight : bool;
  mutable request : Types.request;
  mutable submitted_at : int;
  mutable voters : Quorum.t;  (* replicas that replied to [request] *)
  results : int64 array;  (* replica -> its result, valid for [voters] *)
  mutable timer : Engine.handle option;
  mutable timer_rid : int;  (* the request [timer] was armed for *)
  retry : unit -> unit;
  (* FIFO payload queue: a circular buffer of unboxed int64s *)
  mutable queue : int64 array;
  mutable queue_head : int;
  mutable queue_len : int;
  mutable stopped : bool;
}

let no_request = Types.make_request ~client:(-1) ~rid:(-1) ~payload:0L

let cancel_timer t =
  match t.timer with
  | Some h ->
    Engine.cancel t.engine h;
    t.timer <- None
  | None -> ()

let broadcast_request t request =
  let msg = t.to_msg request in
  for i = 0 to Array.length t.replica_ids - 1 do
    t.fabric.Transport.send ~src:t.id ~dst:(Array.unsafe_get t.replica_ids i) msg
  done

let arm_timer t rid =
  t.timer_rid <- rid;
  t.timer <- Some (Engine.schedule t.engine ~delay:t.retry_timeout t.retry)

(* The timer's action: retransmit the request it was armed for, if that
   request is still the one in flight, and re-arm. *)
let retry t () =
  let rid = t.timer_rid in
  if (not t.stopped) && t.inflight && t.request.Types.rid = rid then begin
    t.stats.Stats.retransmissions <- t.stats.Stats.retransmissions + 1;
    broadcast_request t t.request;
    arm_timer t rid
  end

let start_request t payload =
  t.next_rid <- t.next_rid + 1;
  let request = Types.make_request ~client:t.id ~rid:t.next_rid ~payload in
  t.inflight <- true;
  t.request <- request;
  t.submitted_at <- Engine.now t.engine;
  t.voters <- Quorum.empty;
  t.timer <- None;
  t.stats.Stats.submitted <- t.stats.Stats.submitted + 1;
  broadcast_request t request;
  arm_timer t request.Types.rid

let queue_push t payload =
  let cap = Array.length t.queue in
  if t.queue_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nq = Array.make ncap 0L in
    for i = 0 to t.queue_len - 1 do
      nq.(i) <- t.queue.((t.queue_head + i) land (cap - 1))
    done;
    t.queue <- nq;
    t.queue_head <- 0
  end;
  let cap = Array.length t.queue in
  t.queue.((t.queue_head + t.queue_len) land (cap - 1)) <- payload;
  t.queue_len <- t.queue_len + 1

let queue_pop t =
  let payload = t.queue.(t.queue_head) in
  t.queue_head <- (t.queue_head + 1) land (Array.length t.queue - 1);
  t.queue_len <- t.queue_len - 1;
  payload

(* Replies for the current request whose result is (or, with [agree]
   false, is not) [result]. *)
let tally t result ~agree =
  let c = ref 0 in
  for i = 0 to t.n_replicas - 1 do
    if Quorum.mem t.voters i && Int64.equal (Array.unsafe_get t.results i) result = agree then
      incr c
  done;
  !c

let complete t (reply : Types.reply) =
  cancel_timer t;
  t.inflight <- false;
  t.stats.Stats.completed <- t.stats.Stats.completed + 1;
  Histogram.add t.stats.Stats.latency (float_of_int (Engine.now t.engine - t.submitted_at));
  t.stats.Stats.wrong_replies <-
    t.stats.Stats.wrong_replies + tally t reply.Types.result ~agree:false;
  (match t.on_complete with Some k -> k reply | None -> ());
  if t.queue_len > 0 then start_request t (queue_pop t)

(* A repeated reply from one replica overwrites its earlier result. *)
let on_reply t (reply : Types.reply) =
  let replica = reply.Types.replica in
  if t.inflight && reply.Types.rid = t.request.Types.rid && replica >= 0
     && replica < t.n_replicas
  then begin
    t.voters <- Quorum.add t.voters replica;
    Array.unsafe_set t.results replica reply.Types.result;
    if tally t reply.Types.result ~agree:true >= t.quorum then complete t reply
  end

let create engine fabric ~id ~n_replicas ~quorum ~retry_timeout ~stats ~to_msg ~of_msg
    ?on_complete () =
  if quorum <= 0 then invalid_arg "Client.create: quorum must be positive";
  if retry_timeout <= 0 then invalid_arg "Client.create: timeout must be positive";
  Quorum.check_n n_replicas "Client.create";
  let replica_ids = Array.init n_replicas Fun.id in
  let rec t =
    {
      engine;
      fabric;
      id;
      n_replicas;
      replica_ids;
      quorum;
      retry_timeout;
      stats;
      to_msg;
      on_complete;
      next_rid = 0;
      inflight = false;
      request = no_request;
      submitted_at = 0;
      voters = Quorum.empty;
      results = Array.make n_replicas 0L;
      timer = None;
      timer_rid = -1;
      retry = (fun () -> retry t ());
      queue = [||];
      queue_head = 0;
      queue_len = 0;
      stopped = false;
    }
  in
  fabric.Transport.set_handler id (fun ~src:_ msg ->
      if not t.stopped then
        match of_msg msg with Some reply -> on_reply t reply | None -> ());
  t

let submit t ~payload =
  if not t.stopped then
    if t.inflight then queue_push t payload else start_request t payload

let id t = t.id

let outstanding t = t.inflight

let queued t = t.queue_len

let shutdown t =
  t.stopped <- true;
  if t.inflight then begin
    cancel_timer t;
    t.inflight <- false
  end
