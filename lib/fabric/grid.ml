type slot_id = int

type slot = { id : slot_id; region : Region.t; variant : int; owner : int }

type t = {
  width : int;
  height : int;
  (* frame -> slot_id occupying it, or -1 when free *)
  frames : int array array;
  trojaned : bool array array;
  slots : (slot_id, slot) Hashtbl.t;
  mutable next_id : int;
}

let create ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Grid.create: dimensions must be positive";
  {
    width;
    height;
    frames = Array.make_matrix height width (-1);
    trojaned = Array.make_matrix height width false;
    slots = Hashtbl.create 16;
    next_id = 0;
  }

let width t = t.width
let height t = t.height

let check_frame t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg "Grid: frame coordinate out of range"

let mark_trojaned t ~x ~y =
  check_frame t ~x ~y;
  t.trojaned.(y).(x) <- true

let region_free t region =
  Region.fits region ~grid_w:t.width ~grid_h:t.height
  && List.for_all (fun (x, y) -> t.frames.(y).(x) = -1) (Region.frames region)

let place t ~region ~variant ~owner =
  if not (Region.fits region ~grid_w:t.width ~grid_h:t.height) then
    Error "region does not fit the grid"
  else if not (region_free t region) then Error "region overlaps an existing slot"
  else begin
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    List.iter (fun (x, y) -> t.frames.(y).(x) <- id) (Region.frames region);
    Hashtbl.replace t.slots id { id; region; variant; owner };
    Ok id
  end

let get_slot t id =
  match Hashtbl.find_opt t.slots id with
  | Some s -> s
  | None -> invalid_arg "Grid: unknown slot id"

let release t id =
  let s = get_slot t id in
  List.iter (fun (x, y) -> t.frames.(y).(x) <- -1) (Region.frames s.region);
  Hashtbl.remove t.slots id

let slot t id = Hashtbl.find_opt t.slots id

let slots t = Hashtbl.fold (fun _ s acc -> s :: acc) t.slots [] |> List.sort compare

let set_variant t id variant =
  let s = get_slot t id in
  Hashtbl.replace t.slots id { s with variant }

let slot_on_trojaned_frame t id =
  let s = get_slot t id in
  List.exists (fun (x, y) -> t.trojaned.(y).(x)) (Region.frames s.region)

let free_area t =
  let n = ref 0 in
  for y = 0 to t.height - 1 do
    for x = 0 to t.width - 1 do
      if t.frames.(y).(x) = -1 then incr n
    done
  done;
  !n

let find_placement t ~w ~h ?(avoid_trojaned = false) () =
  if w <= 0 || h <= 0 then invalid_arg "Grid.find_placement: non-positive dimensions";
  let candidate_ok region =
    region_free t region
    && ((not avoid_trojaned)
        || List.for_all (fun (x, y) -> not t.trojaned.(y).(x)) (Region.frames region))
  in
  let result = ref None in
  (try
     for y = 0 to t.height - h do
       for x = 0 to t.width - w do
         let region = Region.make ~x ~y ~w ~h in
         if candidate_ok region then begin
           result := Some region;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !result

let relocate t id ?(avoid_trojaned = false) () =
  let s = get_slot t id in
  (* Free our own frames first so the new placement may reuse part of the
     grid, but remember them in case no placement exists. *)
  List.iter (fun (x, y) -> t.frames.(y).(x) <- -1) (Region.frames s.region);
  match find_placement t ~w:s.region.Region.w ~h:s.region.Region.h ~avoid_trojaned () with
  | Some region ->
    List.iter (fun (x, y) -> t.frames.(y).(x) <- id) (Region.frames region);
    Hashtbl.replace t.slots id { s with region };
    Ok region
  | None ->
    (* Restore the original placement. *)
    List.iter (fun (x, y) -> t.frames.(y).(x) <- id) (Region.frames s.region);
    Error "no alternative placement available"

let occupancy t =
  let total = t.width * t.height in
  float_of_int (total - free_area t) /. float_of_int total
