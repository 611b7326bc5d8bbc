(** Byte-stream compression for the Codebase DB.

    The paper stores its Codebase DB as "Zstd compressed MessagePack"
    (§IV). Zstd is not available in this sealed environment, so this module
    provides an LZ77/LZSS-style compressor with the same role: fast,
    lossless, effective on the highly repetitive MessagePack tree dumps
    (tree node kinds repeat constantly).

    Format ["SVZ1"]: a 4-byte magic, a varint original length, then a
    token stream. Token high bit clear → literal run of [b + 1] bytes;
    high bit set → back-reference of length [(b land 0x7F) + min_match]
    with a 16-bit big-endian distance (1–65535) into the already-decoded
    output. *)

val compress : string -> string
(** [compress s] never fails; worst case the output is a fraction larger
    than the input (pure literal runs plus header). The output is a pure
    function of [s]: the match table is shared across calls (allocated
    on first use), never its contents. *)

exception Corrupt of string
(** Raised by {!decompress} on malformed input. *)

val decompress : string -> string
(** [decompress (compress s) = s] for all [s]. Raises {!Corrupt} when the
    magic, lengths, or back-references are inconsistent — including a
    declared length larger than the token stream could expand to, which
    is rejected before any output is allocated. *)

val ratio : string -> float
(** [ratio s] is [compressed length / original length] (1.0 for the empty
    string); used by the Codebase DB stats report. *)
