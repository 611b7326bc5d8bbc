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

val equal : t -> t -> bool
(** Structural equality. *)

val pp : Format.formatter -> t -> unit
(** Debug rendering in a JSON-like notation. *)
