(** MinBFT — efficient BFT-SMR with a USIG hybrid (Veronese et al.).

    The paper's flagship argument for architectural hybridization (§I, §III):
    anchoring message uniqueness in a small trusted component (the USIG of
    {!Resoc_hybrid.Usig}) cuts the replica requirement from 3f+1 to 2f+1 and
    one agreement phase: request → prepare (primary, with UI) → commit (all,
    with UI) → execute on f+1 commits → reply.

    Equivocation is structurally impossible: the USIG never signs two
    messages with the same counter, and verifiers enforce exact counter
    continuity per sender, so a lying primary can only *add* requests, not
    fork histories — this emerges from the hybrid here, it is not asserted.
    Conversely, a silently corrupted [Plain] USIG counter register produces
    counter gaps that stall the primary's slots until a view change (E2).

    Shares its agreement core with {!A2m_bft} through {!Hybrid_bft.Make};
    the simplified view change / state transfer is documented there and in
    DESIGN.md. *)

module Usig = Resoc_hybrid.Usig

include Hybrid_bft.S with type hybrid = Usig.t and type cert = Usig.ui

val usig : t -> replica:int -> Usig.t
(** Alias of {!hybrid}: the replica's USIG, for aiming SEU campaigns at its
    counter register. *)
