module A2m = Resoc_hybrid.A2m
module Hash = Resoc_crypto.Hash

(* The A2M as a Hybrid_bft certificate mechanism: the log position is the
   counter (contiguous by construction of append), and the attestation binds
   it to the entry digest and the chain head. *)
module A2m_hybrid = struct
  type t = A2m.t
  type cert = A2m.attestation

  let module_name = "A2m_bft"
  let protocol_name = "a2m-bft"

  (* The log lives in protected memory conceptually; the [protection]
     parameter concerns register-based hybrids and is not meaningful here. *)
  let make ~id ~key ~protection:_ = A2m.create ~id ~key

  let create_cert log digest = Ok (A2m.append log digest)

  let verify_cert ~key ~digest (a : A2m.attestation) =
    A2m.verify ~key a && Hash.equal a.A2m.entry digest

  let cert_signer (a : A2m.attestation) = a.A2m.signer
  let cert_counter (a : A2m.attestation) = a.A2m.seq
  let current_counter log = Int64.of_int (A2m.size log)
end

include Hybrid_bft.Make (A2m_hybrid)
