(** Minimal JSON tree, printer and parser.

    The repository deliberately has no JSON dependency; run manifests
    only need objects, arrays, strings, ints and floats.  The printer
    emits standard JSON (floats chosen so they parse back to the same
    bits); the parser accepts standard JSON including escape sequences
    and [\uXXXX] (encoded to UTF-8).  [to_string (of_string s)] is the
    identity on values, which the test suite pins. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message naming the byte offset. *)

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation;
    otherwise one compact line. *)

val of_string : string -> t
(** Numbers without [.], [e] or [E] parse as [Int]; everything else
    numeric as [Float]. *)

(** {2 Streaming} — for documents too large to hold as a tree (the
    serve snapshots).  A writer prints exactly the bytes
    [to_string ~indent:false] prints for the same values; a reader
    accepts exactly what {!of_string} accepts at that position and
    fails where the matching [get_*] accessor would. *)

val write : Buffer.t -> t -> unit
(** Compact form of a whole tree, as [to_string ~indent:false]. *)

val write_int : Buffer.t -> int -> unit
val write_float : Buffer.t -> float -> unit
(** Non-finite floats print as [null]. *)

val write_string : Buffer.t -> string -> unit
(** Quoted and escaped. *)

type reader
(** A cursor over one JSON document. *)

val reader : string -> reader

val read_value : reader -> t
(** The next whole value, as a tree. *)

val read_int : reader -> int
val read_float : reader -> float
(** Accepts an integer too. *)

val read_string : reader -> string

val read_null : reader -> bool
(** Consumes and returns [true] when the next value is [null]; consumes
    nothing otherwise. *)

val read_list : reader -> (reader -> unit) -> unit
(** [read_list r f] reads an array, calling [f r] once per element;
    [f] must read exactly that element. *)

val read_obj : reader -> (unit -> 'a) -> 'a
(** [read_obj r f] reads an object whose members [f] reads, in order,
    with {!read_field}; a member [f] leaves unread is an error. *)

val read_field : reader -> string -> unit
(** Inside {!read_obj}: reads the next member's key and colon, failing
    unless the key is the given one.  Its value is read next. *)

val read_end : reader -> unit
(** Fails unless only whitespace is left. *)

(** {2 Accessors} — all raise {!Parse_error} on shape mismatch, naming
    the offending member, so decoder errors point at the field. *)

val member : string -> t -> t
(** Field of an object; [Null] if absent. *)

val get_int : t -> int
val get_float : t -> float
(** Accepts [Int] too. *)

val get_string : t -> string
val get_list : t -> t list
val get_obj : t -> (string * t) list
