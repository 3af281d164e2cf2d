(** JSON string escaping shared by every writer in the tree, and the one
    JSON reader. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal. Double quote, backslash,
    newline, carriage return and tab get their short escapes, other
    control characters [\uXXXX], and every other byte is copied. *)

type t =
  | Null
  | Bool of bool
  | Int of int64  (** An integer literal within the int64 range, exact. *)
  | Float of float  (** Any other number. *)
  | String of string  (** Escapes decoded; [\uXXXX] becomes UTF-8. *)
  | List of t list
  | Obj of (string * t) list  (** Members in document order. *)

val parse : string -> t
(** Parse one RFC 8259 document. Raises [Failure] with the offset on
    malformed input: raw control characters in strings, unknown
    escapes, lone surrogates, malformed numbers, trailing input. *)

val member : string -> t -> t option
(** The first member of that name of an object; [None] otherwise. *)
