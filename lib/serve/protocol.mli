(** The `sv serve` wire protocol: length-prefixed JSON frames.

    One frame is a 4-byte big-endian payload length followed by exactly
    that many bytes of UTF-8 JSON ({!Sv_jsonx}), because requests are
    written by humans and foreign clients. The codec here is pure (no sockets, no I/O): the
    conformance suite drives it directly, and {!Server}/{!Client} only
    add file descriptors.

    Request grammar (one JSON object per frame):
    {v
      { "id": <int>?, "verb": "index",    "app": <s>, "model": <s> }
      { "id": <int>?, "verb": "compare",  "app": <s>, "base": <s>, "target": <s> }
      { "id": <int>?, "verb": "matrix",   "app": <s>, "metric": <s> }
      { "id": <int>?, "verb": "cluster",  "app": <s>, "metric": <s> }
      { "id": <int>?, "verb": "nearest",  "app": <s>, "model": <s>, "metric": <s>,
                      "k": <int>?, "budget": <int>?, "epsilon": <number>? }
      { "id": <int>?, "verb": "status" }
      { "id": <int>?, "verb": "shutdown" }
    v}

    Replies echo the [id] (or [null] when the request's could not be
    read) and carry a [status] of ["ok"], ["error"] or ["overloaded"]:
    {v
      { "id": .., "status": "ok", "verb": <s>, "warm": <bool>, "output": <s> }
      { "id": .., "status": "ok", "verb": "status", <counter fields...> }
      { "id": .., "status": "ok", "verb": "shutdown" }
      { "id": .., "status": "error", "kind": <s>, "message": <s> }
      { "id": .., "status": "overloaded", "queue": <int>, "high_water": <int> }
    v} *)

val default_max_frame : int
(** Payload-size cap (16 MiB): larger frames are rejected without
    buffering the payload. *)

(** {2 Requests} *)

type request =
  | Index of { app : string; model : string }
  | Compare of { app : string; base : string; target : string }
  | Matrix of { app : string; metric : string }
  | Cluster of { app : string; metric : string }
  | Nearest of {
      app : string;
      model : string;
      metric : string;
      k : int;
      budget : int option;
      epsilon : float option;
    }
      (** k-NN over the VP-tree index ({!Sv_core.Tbmd.vp_index}); the
          wire field ["k"] is optional and defaults to 3. [budget] and
          [epsilon] (absent = exact search) select the budgeted
          best-first mode, whose reply reports the honest exactness
          ledger in its rendered output. *)
  | Status
  | Shutdown

val verb_of_request : request -> string

(** Typed reply-error taxonomy. The first four arise in the codec /
    transport layer, the rest in request evaluation. *)
type error_kind =
  | Oversized      (** frame length beyond the cap *)
  | Bad_json       (** payload is not valid JSON *)
  | Bad_request    (** JSON is not a request object (missing/ill-typed fields) *)
  | Unknown_verb
  | Unknown_app
  | Unknown_model
  | Unknown_metric
  | Invalid_request  (** well-formed request with out-of-domain values (k < 1, negative budget, bad ε) *)
  | Failed         (** evaluation raised *)

val kind_to_string : error_kind -> string
(** Wire spelling, e.g. ["unknown-verb"]. *)

val kind_of_string : string -> error_kind option

type response =
  | Output of { verb : string; warm : bool; output : string }
      (** [index]/[compare]/[matrix]/[cluster]/[nearest] result: [output] is
          byte-identical to what the one-shot CLI prints for the same
          request; [warm] is true when no codebase had to be indexed. *)
  | Status_of of (string * Sv_jsonx.Jsonx.t) list
      (** Telemetry fields in report order. *)
  | Shutdown_ack
  | Error of { kind : error_kind; message : string }
  | Overloaded of { queue : int; high_water : int }

(** {2 Payload codec (JSON bytes, unframed)} *)

val encode_request : ?id:int -> request -> string

val decode_request : string -> (int option * request, error_kind * string) result
(** Classify malformed payloads per the taxonomy above; the [id] is
    recovered whenever the payload parses to an object, even if the
    request itself is rejected. *)

val request_id : string -> int option
(** Best-effort [id] extraction from a raw payload (for replies that
    must be produced without decoding, e.g. admission-control sheds). *)

val encode_response : id:int option -> response -> string

val decode_response : string -> (int option * response, string) result

(** {2 Framing} *)

val frame : string -> string
(** [frame payload] prefixes the 4-byte big-endian length. *)

(** Incremental defragmenter for a byte stream of frames. Feed it
    whatever [read] returned; it yields complete payloads in order.
    Frames are only ever yielded whole — a reader can never observe a
    torn frame, only an [`Awaiting] that resolves once the rest
    arrives. *)
module Reader : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val feed : t -> string -> unit

  val next : t -> [ `Frame of string | `Awaiting | `Oversized of int ]
  (** [`Oversized n] reports a frame announcing [n] payload bytes beyond
      the cap; the stream cannot be resynchronised after it (callers
      should reply with an {!Oversized} error and drop the connection).
      Once reported, the reader keeps reporting it. *)

  val buffered : t -> int
  (** Bytes fed but not yet yielded. *)
end
