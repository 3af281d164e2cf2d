(** JSON string escaping shared by every writer in the tree. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal. Double quote, backslash,
    newline, carriage return and tab get their short escapes, other
    control characters [\uXXXX], and every other byte is copied. *)
