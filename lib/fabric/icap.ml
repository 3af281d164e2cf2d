module Engine = Resoc_des.Engine

type request_result =
  | Configured of Grid.slot_id
  | Denied
  | Invalid_bitstream
  | Region_conflict of string
  | Shape_mismatch

type op = { run : unit -> unit }

type t = {
  engine : Engine.t;
  grid : Grid.t;
  bytes_per_cycle : int;
  acl : (int, Region.t list) Hashtbl.t;
  mutable queue : op list;  (* pending, reversed *)
  mutable busy : bool;
  mutable completed : int;
  mutable rejected : int;
}

let create engine grid ?(bytes_per_cycle = 32) () =
  if bytes_per_cycle <= 0 then invalid_arg "Icap.create: bytes_per_cycle must be positive";
  {
    engine;
    grid;
    bytes_per_cycle;
    acl = Hashtbl.create 8;
    queue = [];
    busy = false;
    completed = 0;
    rejected = 0;
  }

let grid t = t.grid

let grant t ~principal ~region =
  let existing = match Hashtbl.find_opt t.acl principal with Some l -> l | None -> [] in
  Hashtbl.replace t.acl principal (region :: existing)

let revoke t ~principal = Hashtbl.remove t.acl principal

let region_within outer (inner : Region.t) =
  inner.Region.x >= outer.Region.x && inner.Region.y >= outer.Region.y
  && inner.Region.x + inner.Region.w <= outer.Region.x + outer.Region.w
  && inner.Region.y + inner.Region.h <= outer.Region.y + outer.Region.h

let allowed t ~principal ~region =
  match Hashtbl.find_opt t.acl principal with
  | None -> false
  | Some grants -> List.exists (fun g -> region_within g region) grants

let write_cycles t bitstream =
  (Bitstream.size_bytes bitstream + t.bytes_per_cycle - 1) / t.bytes_per_cycle

let rec pump t =
  match t.queue with
  | [] -> t.busy <- false
  | op :: rest ->
    t.queue <- rest;
    t.busy <- true;
    op.run ()

and finish t =
  t.completed <- t.completed + 1;
  pump t

let enqueue t run =
  t.queue <- t.queue @ [ { run } ];
  if not t.busy then pump t

let reject t k result =
  t.rejected <- t.rejected + 1;
  k result

let configure t ~principal ~region ~bitstream k =
  if not (allowed t ~principal ~region) then reject t k Denied
  else if not (Bitstream.matches_region bitstream region) then reject t k Shape_mismatch
  else if not (Bitstream.checksum_ok bitstream) then reject t k Invalid_bitstream
  else
    enqueue t (fun () ->
        ignore
          (Engine.schedule t.engine ~delay:(write_cycles t bitstream) (fun () ->
               match
                 Grid.place t.grid ~region ~variant:(Bitstream.variant bitstream) ~owner:principal
               with
               | Ok id ->
                 finish t;
                 k (Configured id)
               | Error e ->
                 t.rejected <- t.rejected + 1;
                 pump t;
                 k (Region_conflict e))))

let reconfigure t ~principal ~slot ~bitstream k =
  match Grid.slot t.grid slot with
  | None -> reject t k (Region_conflict "unknown slot")
  | Some s ->
    let region = s.Grid.region in
    if not (allowed t ~principal ~region) then reject t k Denied
    else if not (Bitstream.matches_region bitstream region) then reject t k Shape_mismatch
    else if not (Bitstream.checksum_ok bitstream) then reject t k Invalid_bitstream
    else
      enqueue t (fun () ->
          (* Re-validate at execution time: an earlier queued operation may
             have released or replaced the slot. *)
          match Grid.slot t.grid slot with
          | None ->
            t.rejected <- t.rejected + 1;
            pump t;
            k (Region_conflict "slot vanished while queued")
          | Some s ->
            (* The slot goes dark while its frames are rewritten. *)
            let owner = s.Grid.owner in
            let region = s.Grid.region in
            Grid.release t.grid slot;
            ignore
              (Engine.schedule t.engine ~delay:(write_cycles t bitstream) (fun () ->
                   match
                     Grid.place t.grid ~region ~variant:(Bitstream.variant bitstream) ~owner
                   with
                   | Ok id ->
                     finish t;
                     k (Configured id)
                   | Error e ->
                     t.rejected <- t.rejected + 1;
                     pump t;
                     k (Region_conflict e))))

let completed t = t.completed
let rejected t = t.rejected
