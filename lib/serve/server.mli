(** The `sv serve` daemon: a single-threaded [select] loop over a Unix
    domain socket.

    Concurrency model — chosen for byte-level determinism, not raw
    throughput:

    - One process, no threads. The loop multiplexes the listener and
      every client connection through [Unix.select]; request
      {e evaluation} of a TED matrix still runs its DPs on domains at
      [jobs] ≥ 2, so parallelism lives below the protocol, where
      byte-identity is already guaranteed.
    - Complete frames enter a FIFO request queue; one request is
      serviced per loop iteration. Admission control is at enqueue
      time: a frame arriving while the queue is at the engine's
      high-water mark is answered immediately with a typed
      [overloaded] reply (echoing the request id when parseable) and
      never queued — load sheds as fast typed replies, not as hangs.
    - Replies are written whole by the one loop thread, so a client can
      never observe a torn frame.
    - An oversized frame poisons its connection (the stream cannot be
      resynchronised): the daemon replies with a typed [oversized]
      error and closes that connection; everyone else is unaffected.

    A [shutdown] request flags the engine; the loop then stops
    accepting, drains the already-admitted queue, replies to each,
    persists the resident caches and removes the socket. *)

val default_socket : unit -> string
(** [SV_SOCKET] if set, else a per-user path under the temp dir. *)

type t

val create : ?max_frame:int -> socket:string -> Engine.t -> t
(** Bind and listen. A stale socket file (no listener behind it) is
    replaced; a live one raises [Failure] — two daemons on one socket
    would split the resident state. *)

val socket : t -> string

val run : t -> unit
(** Serve until a [shutdown] request has been evaluated and the queue
    drained; then close every connection, remove the socket file and
    persist the caches. *)

val serve : ?max_frame:int -> socket:string -> Engine.t -> unit
(** [create] then [run]. *)
