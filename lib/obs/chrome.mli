(** Export trace rings to Chrome [trace_event] JSON, loadable in
    [chrome://tracing] and Perfetto. Record phases map to event phases:
    span begin/end to ["B"]/["E"], instants to ["i"], samples to counter
    events ["C"], and async begin/end to ["b"]/["e"] keyed by the record
    id. [name] resolves a (category, id) pair to the event name and
    [cat_label] a category to its label. When the rings lost records to
    wraparound, the first event is a metadata record (["ph":"M"], name
    ["ring_dropped"]) whose [args.dropped] is the count; otherwise there
    is no such record. *)

val dropped : Ring.t list -> int
(** Records the rings lost to wraparound, summed. *)

val to_string :
  rings:Ring.t list ->
  name:(cat:int -> id:int -> string) ->
  cat_label:(int -> string) ->
  unit ->
  string
