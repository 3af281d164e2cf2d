module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Mesh = Resoc_noc.Mesh
module Network = Resoc_noc.Network
module Grid = Resoc_fabric.Grid
module Icap = Resoc_fabric.Icap
module Transport = Resoc_repl.Transport

type config = {
  mesh_width : int;
  mesh_height : int;
  grid_width : int;
  grid_height : int;
  noc : Network.config;
  seed : int64;
}

let default_config =
  {
    mesh_width = 4;
    mesh_height = 4;
    grid_width = 16;
    grid_height = 16;
    noc = Network.default_config;
    seed = 1L;
  }

(* Per-network statistics are polymorphic in the message type, so the SoC
   keeps monomorphic aggregate counters fed by closures. *)
type t = {
  config : config;
  engine : Engine.t;
  mesh : Mesh.t;
  grid : Grid.t;
  icap : Icap.t;
  mutable stat_probes : (unit -> int * int * int) list;
  mutable on_partition : (reachable:int -> total:int -> unit) option;
}

let create config =
  let engine = Engine.create ~seed:config.seed () in
  let mesh = Mesh.create ~width:config.mesh_width ~height:config.mesh_height in
  let grid = Grid.create ~width:config.grid_width ~height:config.grid_height in
  let icap = Icap.create engine grid () in
  { config; engine; mesh; grid; icap; stat_probes = []; on_partition = None }

let set_on_partition t f = t.on_partition <- Some f

let engine t = t.engine
let rng t = Rng.split (Engine.rng t.engine)
let mesh t = t.mesh
let grid t = t.grid
let icap t = t.icap

let spread_placement t ~n =
  let total = Mesh.n_nodes t.mesh in
  if n > total then invalid_arg "Soc.spread_placement: mesh too small";
  if n <= 0 then invalid_arg "Soc.spread_placement: need at least one tile";
  Array.init n (fun i -> i * total / n)

let noc_fabric t ~placement ~size_of =
  let n = Array.length placement in
  (* Tile -> logical endpoint, -1 for tiles outside the placement: one
     load per delivery. *)
  let logical_of_tile = Array.make (Mesh.n_nodes t.mesh) (-1) in
  Array.iteri
    (fun logical tile ->
      Mesh.check_id t.mesh tile;
      if logical_of_tile.(tile) >= 0 then
        invalid_arg "Soc.noc_fabric: placement must be injective";
      logical_of_tile.(tile) <- logical)
    placement;
  let network = Network.create t.engine t.mesh t.config.noc in
  (* Forward adaptive-routing partition reports to whoever registered
     interest (the field is read at call time, so registering after the
     fabric is built still works). *)
  Network.set_partition_handler network (fun ~reachable ~total ->
      match t.on_partition with Some f -> f ~reachable ~total | None -> ());
  let send ~src ~dst msg =
    Network.send network ~src:placement.(src) ~dst:placement.(dst) ~bytes_:(size_of msg) msg
  in
  let set_handler logical handler =
    Network.attach network ~node:placement.(logical) (fun ~src msg ->
        let logical_src = Array.unsafe_get logical_of_tile src in
        if logical_src >= 0 then handler ~src:logical_src msg)
  in
  let detach logical = Network.detach network ~node:placement.(logical) in
  t.stat_probes <-
    (fun () -> (Network.sent network, Network.bytes_sent network, Network.dropped network))
    :: t.stat_probes;
  (* Tree multicast, exposed only when the SoC's NoC config enables it:
     logical endpoints are translated to tiles in a reusable scratch
     array, so a protocol broadcast costs no allocation here. *)
  let multicast =
    if t.config.noc.Network.multicast then begin
      let scratch = ref (Array.make (max n 1) 0) in
      Some
        (fun ~src ~dsts ~n:k msg ->
          if k > Array.length !scratch then scratch := Array.make (2 * k) 0;
          let tiles = !scratch in
          for i = 0 to k - 1 do
            tiles.(i) <- placement.(dsts.(i))
          done;
          Network.multicast network ~src:placement.(src) ~dsts:tiles ~n:k
            ~bytes_:(size_of msg) msg)
    end
    else None
  in
  {
    Transport.n_endpoints = n;
    send;
    multicast;
    set_handler;
    detach;
    messages_sent = (fun () -> Network.sent network);
    bytes_sent = (fun () -> Network.bytes_sent network);
  }

let aggregate t pick =
  List.fold_left (fun acc probe -> acc + pick (probe ())) 0 t.stat_probes

let noc_messages t = aggregate t (fun (m, _, _) -> m)
let noc_bytes t = aggregate t (fun (_, b, _) -> b)
let noc_dropped t = aggregate t (fun (_, _, d) -> d)
