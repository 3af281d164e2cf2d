module Hash = Resoc_crypto.Hash

type t = { variant : int; w : int; h : int; payload : Hash.t; checksum : Hash.t }

(* The "payload" stands in for the configuration data; its true value for a
   given (variant, shape) is a deterministic function, so validators can
   recompute the expected checksum. *)
let payload_of ~variant ~w ~h =
  Hash.combine_int (Hash.combine_int (Hash.combine_int (Hash.of_string "bitstream") variant) w) h

let checksum_of ~variant ~w ~h payload =
  Hash.combine (Hash.combine_int (Hash.combine_int (Hash.combine_int Hash.zero variant) w) h) payload

let make ~variant ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Bitstream.make: non-positive dimensions";
  let payload = payload_of ~variant ~w ~h in
  { variant; w; h; payload; checksum = checksum_of ~variant ~w ~h payload }

let variant t = t.variant

(* 212 KiB per frame column is a plausible 7-series-like figure; any constant
   works since only ratios matter. *)
let size_bytes t = t.w * t.h * 26_624

let checksum_ok t =
  Hash.equal t.checksum (checksum_of ~variant:t.variant ~w:t.w ~h:t.h t.payload)
  && Hash.equal t.payload (payload_of ~variant:t.variant ~w:t.w ~h:t.h)

let corrupt t = { t with payload = Hash.combine t.payload (Hash.of_string "bitrot") }

let forge t ~variant = { t with variant }

let matches_region t (r : Region.t) = t.w = r.Region.w && t.h = r.Region.h
