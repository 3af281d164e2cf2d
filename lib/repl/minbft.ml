module Usig = Resoc_hybrid.Usig

(* The USIG as a Hybrid_bft certificate mechanism: counters come from the
   tamper-proof register, so they are unique and sequential by
   construction. *)
module Usig_hybrid = struct
  type t = Usig.t
  type cert = Usig.ui

  let module_name = "Minbft"
  let protocol_name = "minbft"
  let make ~id ~key ~protection = Usig.create ~id ~key ~protection
  let create_cert = Usig.create_ui
  let verify_cert ~key ~digest cert = Usig.verify_ui ~key ~digest cert
  let cert_signer (ui : Usig.ui) = ui.Usig.signer
  let cert_counter (ui : Usig.ui) = ui.Usig.counter
  let current_counter = Usig.counter_value
end

include Hybrid_bft.Make (Usig_hybrid)

let usig = hybrid
