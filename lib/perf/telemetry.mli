(** Process-wide performance counters for the hot engines.

    Per TED pair the divergence layer either settles equal trees by
    intern id or runs the full DP; these counters record which, with the
    flat compiles and decomposition strategies behind the DPs, so
    `sv compare --stats` and perfbench can report that work next to
    wall-clock numbers. Counters
    are plain mutable ints — monotone within a process, reset explicitly,
    and private to each forked worker (children inherit a copy; their
    increments do not flow back, so parent-side reports describe
    parent-side work only). *)

type ted = {
  mutable equal_prunes : int;
      (** pairs answered 0 by equality (intern id or pointer), no DP *)
  mutable dp_runs : int;  (** full flat-kernel runs *)
  mutable flat_compiles : int;  (** trees compiled to flat form *)
  mutable scratch_grows : int;  (** geometric growths of the DP scratch *)
  mutable strategy_left : int;  (** pairs decomposed along the left path *)
  mutable strategy_right : int;  (** pairs decomposed along the right path *)
}

val ted : ted
(** The process-global TED counter block, incremented by the kernels in
    [Sv_tree]. *)

val reset_ted : unit -> unit
(** Zero every TED counter. *)

val ted_snapshot : unit -> ted
(** An independent copy of the current counters (for before/after diffs). *)

val ted_diff : before:ted -> after:ted -> ted
(** Field-wise [after - before]. *)

val ted_pruned : ted -> int
(** Total pairs settled without running the DP (today: by equality). *)

val ted_rows : ted -> (string * int) list
(** Label/value rows for tabular reports, one per counter. *)

val ted_to_string : ted -> string
(** One-line summary for CLI [--stats] output. *)

(** {2 Service counters}

    The `sv serve` daemon's per-request telemetry: connections accepted,
    frames decoded, replies by class, queue pressure, wire volume, and
    whether requests were answered from resident state. All counters are
    monotone within a process (the soak test's oracle) except none —
    there is no decrement anywhere; {!reset_serve} is the only way down.
    The daemon's [status] verb reports them next to cache hit rates. *)

type serve = {
  mutable connections : int;  (** connections accepted *)
  mutable requests : int;  (** complete frames received *)
  mutable served : int;  (** [ok] replies sent *)
  mutable errors : int;  (** [error] replies sent *)
  mutable overloaded : int;  (** requests shed by admission control *)
  mutable queue_peak : int;  (** deepest request queue observed *)
  mutable bytes_in : int;  (** payload bytes received (frames, sans headers) *)
  mutable bytes_out : int;  (** payload bytes sent *)
  mutable warm_hits : int;  (** requests served entirely from resident state *)
  mutable cold_misses : int;  (** requests that had to index at least one codebase *)
  mutable usec_total : int;  (** cumulative request-handling microseconds *)
}

val serve : serve
(** The process-global service counter block. *)

val reset_serve : unit -> unit

val note_queue_depth : int -> unit
(** Raise [queue_peak] to the given depth if deeper than seen before. *)

val serve_rows : serve -> (string * int) list
(** Label/value rows in a fixed order (the [status] verb's payload). *)
