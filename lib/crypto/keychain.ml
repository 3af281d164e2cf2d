(* The component keys are checked on every certificate, so all n are
   derived once, at [create]. *)
type t = { master : int64; n : int; components : Mac.key array }

let create ~master ~n =
  if n <= 0 then invalid_arg "Keychain.create: n must be positive";
  let base = Hash.combine master 0x55534947L in
  { master; n; components = Array.init n (fun i -> Mac.key_of_int64 (Hash.combine_int base i)) }

let size t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Keychain: principal out of range"

let pairwise t i j =
  check t i;
  check t j;
  let lo = min i j and hi = max i j in
  Mac.key_of_int64 (Hash.combine_int (Hash.combine_int t.master lo) hi)

let component t i =
  check t i;
  Array.unsafe_get t.components i

let group t = Mac.key_of_int64 (Hash.combine t.master 0x47525055L)
