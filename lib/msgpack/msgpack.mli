(** MessagePack encoding and decoding.

    SilverVale's Codebase DB stores semantic-bearing trees "in a Zstd
    compressed MessagePack format" (§IV). This is a pure-OCaml
    implementation of the MessagePack binary format covering the types the
    Codebase DB needs: nil, booleans, integers, 64-bit floats, strings,
    binary blobs, arrays and maps (including all fixint/fix-length and
    8/16/32-bit length encodings; 64-bit integers are supported within
    OCaml's 63-bit [int] range). *)

type t =
  | Nil
  | Bool of bool
  | Int of int              (** encoded with the smallest format that fits *)
  | Float of float          (** always encoded as float64 *)
  | Str of string           (** UTF-8 text *)
  | Bin of string           (** raw bytes *)
  | Arr of t list
  | Map of (t * t) list

exception Decode_error of string
(** Raised by {!decode} on malformed input, with a position message. *)

val encode : t -> string
(** [encode v] is the canonical MessagePack byte serialisation of [v]:
    integers and length prefixes use the smallest representation. *)

val encode_to : Buffer.t -> t -> unit
(** [encode_to b v] appends the encoding of [v] to [b] — lets callers
    frame several values into one buffer (the Codebase DB writer)
    without intermediate strings. *)

val decode : string -> t
(** [decode s] parses exactly one value occupying the whole string.
    Raises {!Decode_error} on malformed or trailing input. *)

val decode_prefix : string -> int -> t * int
(** [decode_prefix s pos] parses one value starting at [pos], returning it
    together with the offset just past it — for streaming several values
    out of one buffer. *)

(** {2 Cursor}

    A typed walk over an encoding, for readers that know its schema and
    want their own values rather than a {!t}. Each read consumes one
    value of the named type and raises {!Decode_error} on any other tag
    or on truncation. *)

type cursor

val cursor : string -> cursor
(** [cursor s] reads [s] from offset 0. *)

val pos : cursor -> int
(** The offset of the next unread byte. *)

val at_end : cursor -> bool
(** Every byte has been read. *)

val read_array : cursor -> int
(** An array header: the element count. The elements follow. *)

val read_list : cursor -> (cursor -> 'a) -> 'a list
(** [read_list c f] reads an array whose elements [f] reads, in order. *)

val read_str : cursor -> string
val read_bin : cursor -> string
val read_int : cursor -> int

val read_nil : cursor -> bool
(** Consumes a nil and is [true]; on any other value it reads nothing
    and is [false]. *)

type strtab
(** Strings already read, found again by their bytes. *)

val strtab : unit -> strtab

val read_str_shared : strtab -> cursor -> string
(** Reads a string; every string read through one table with the same
    bytes is the one physical string. *)

val skip_repeat : cursor -> start:int -> stop:int -> bool
(** [skip_repeat c ~start ~stop] holds when the bytes at the cursor
    repeat the non-empty range [\[start, stop)] of the same input, and
    then moves past them. When that range held one whole value, the
    repeat is an identical value. Otherwise it is [false] and reads
    nothing. *)

val equal : t -> t -> bool
(** Structural equality. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering in a JSON-like notation. *)
