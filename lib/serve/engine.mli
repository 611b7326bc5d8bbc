(** Request evaluation against resident state: the one evaluator
    behind the daemon, `sv client`'s in-process fallback and the one-shot
    `sv compare`, `sv cluster` and `sv nearest`.

    One {!t} owns everything `sv serve` keeps warm between requests:

    - a size-bounded {!Sv_db.Lru} of decoded {!Sv_core.Pipeline.indexed}
      codebases, keyed by {!Sv_core.Pipeline.codebase_key} (so a
      corpus edit is a structural miss, never a stale hit). Each entry
      is charged the byte length of its trees record in the index cache,
      which holds every resident, so an evicted entry comes back as a
      cache hit and a decode, never a re-index. Entries are indexed
      without a run; the [index] verb, the one verb that reads the
      interpreter's results, attaches them to its entry
      ({!Sv_core.Index_engine.with_run}) and re-adds it. Each entry
      renders its [index] reply ({!render_index}) at most once, on first
      request, and drops it on eviction;
    - a resident {!Sv_db.Index_cache}, {!Sv_db.Codebase_db.Ted_cache}
      and {!Sv_db.Metric_cache}, loaded from disk at creation (empty
      when no path is configured) and persisted back on request
      ({!persist}): periodically and at shutdown in the daemon, once at
      the end of a one-shot command;
    - a second {!Sv_db.Lru} of built VP-tree metric indexes keyed by
      {!Sv_core.Tbmd.vp_key}, so repeated `nearest` requests reuse the
      resident tree instead of rebuilding it per call;
    - the engine configuration (the domain count for TED matrices).

    Every evaluation installs this state into the process-wide engine
    hooks ({!Sv_core.Tbmd}, {!Sv_core.Index_engine}) through
    {!with_installed}, the one place the CLI and the service layer
    install them, and restores the previous hooks after.

    The render functions are the {e single} source of the textual output
    for both the daemon and the one-shot CLI — which is what makes the
    byte-identity guarantee structural rather than aspirational. *)

module Pipeline = Sv_core.Pipeline

type config = {
  jobs : int;  (** domains for TED matrices; 0 means {!Sv_core.Tbmd.default_jobs} *)
  lru_budget : int;  (** resident-codebase budget, bytes of trees records *)
  high_water : int;  (** request-queue admission mark (enforced by {!Server}) *)
  ted_cache_path : string option;
  index_cache_path : string option;
  metric_cache_path : string option;
      (** persistent VP-tree metric-index cache ({!Sv_db.Metric_cache}):
          a warm `nearest` pays zero index-build evaluations *)
  persist_every : int;  (** persist caches every N served requests; 0 = only at shutdown *)
}

val default_config : unit -> config
(** Defaults: [jobs = 1], [lru_budget] 64 MiB, [high_water = 8], no
    cache paths, [persist_every = 32]. *)

type t

val create : config -> t
(** Load the configured caches (missing files are cold starts) and start
    with an empty LRU. *)

val config : t -> config

val set_queue_depth : t -> int -> unit
(** The server's live queue depth, reported by the [status] verb. *)

val shutting_down : t -> bool
(** True once a [shutdown] request has been acknowledged. *)

val handle : t -> Protocol.request -> Protocol.response
(** Evaluate one decoded request. Never raises: evaluation failures
    become [Error {kind = Failed; _}] replies. *)

val handle_payload : t -> string -> string
(** [handle_payload t payload] is the full payload-in/payload-out step
    the server runs per frame: decode (classifying malformed payloads),
    evaluate, encode, and account telemetry ({!Sv_perf.Telemetry.serve})
    including request latency. The pure-codec conformance suite drives
    this directly — no socket required. *)

val shed : t -> queue:int -> string -> string
(** [shed t ~queue payload] is the encoded [overloaded] reply for a
    frame refused by admission control (echoing the request id when the
    payload parses), with the refusal accounted in the serve counters. *)

val oversized : t -> announced:int -> cap:int -> string
(** The encoded typed error for a frame announcing more payload bytes
    than the cap allows, accounted as an error reply. *)

val with_installed : t -> (unit -> 'a) -> 'a
(** [with_installed t f] runs [f] with the engine's caches and domain
    count installed into the process-wide hooks, restoring the previous
    hooks after (also when [f] raises). `sv index` and `sv verify`, which
    need the interpreter's results, index through it. *)

val persist : ?ledger:bool -> t -> unit
(** Save the resident TED, index and metric caches to their configured
    paths (no-op for unconfigured paths; save failures are reported on
    stderr as [sv: warning: <cache> not saved: <reason>], never raised —
    a daemon must not die because a disk filled). With [~ledger:true]
    (the one-shot CLI) each saved cache also prints its line on stdout:
    its stats before the save, then [, N new (saved to PATH)]. *)

val status_fields : t -> (string * Sv_jsonx.Jsonx.t) list
(** The [status] verb's payload: serve counters, queue depth and
    high-water mark, LRU occupancy, cache hit rates, worker count. *)

(** {2 Shared renderers}

    Exactly what the one-shot CLI prints for the corresponding
    subcommand (modulo cache-save banners, which belong to the CLI). *)

val render_compare :
  app:string -> base:string -> target:string ->
  Pipeline.indexed -> Pipeline.indexed -> string

val render_matrix : Sv_core.Tbmd.metric -> Pipeline.indexed list -> string
(** The divergence heatmap alone. *)

val render_cluster : Sv_core.Tbmd.metric -> Pipeline.indexed list -> string
(** Heatmap followed by the dendrogram — `sv cluster`'s output. *)

val render_index : Pipeline.indexed -> string
(** Codebase DB stats line plus the built-in verification verdict —
    `sv index`'s output up to the artifact-save banner. *)

val render_nearest :
  app:string ->
  model:string ->
  k:int ->
  ?budget:int ->
  ?epsilon:float ->
  ?index:Sv_core.Tbmd.vp ->
  Sv_core.Tbmd.metric ->
  Pipeline.indexed ->
  Pipeline.indexed list ->
  string
(** `sv nearest`'s output: the query's k nearest ports (other models
    only) by raw and normalised divergence, through the VP-tree index
    ({!Sv_core.Navigation.nearest_ports}), plus the evaluation count
    the index spent against the candidate total. [index] is an
    already-built tree over {e exactly} the filtered candidate list
    (the daemon's resident memo); construction is deterministic, so
    passing it cannot change a byte of the output. With [budget] or
    [epsilon] the search may stop early, and a final line reports the
    knobs plus the honest [guaranteed_exact] claim. *)
