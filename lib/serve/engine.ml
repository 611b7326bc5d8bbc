module J = Sv_jsonx.Jsonx
module T = Sv_perf.Telemetry
module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Apps = Sv_core.Apps
module Navigation = Sv_core.Navigation
module Index_engine = Sv_core.Index_engine
module Index_cache = Sv_db.Index_cache
module Ted_cache = Sv_db.Codebase_db.Ted_cache
module Metric_cache = Sv_db.Metric_cache
module Lru = Sv_db.Lru
module Report = Sv_report.Report

type config = {
  jobs : int;
  lru_budget : int;
  high_water : int;
  ted_cache_path : string option;
  index_cache_path : string option;
  metric_cache_path : string option;
  persist_every : int;
}

let default_config () =
  {
    jobs = 1;
    lru_budget = 64 * 1024 * 1024;
    high_water = 8;
    ted_cache_path = None;
    index_cache_path = None;
    metric_cache_path = None;
    persist_every = 32;
  }

(* A resident codebase is charged the byte length of its trees record,
   which the installed index cache already holds: every resident was
   just found in it or added to it, so eviction loses nothing and needs
   no spill. The [index] verb's text rebuilds and compresses the whole
   Codebase DB, so it is rendered at most once per residency and dropped
   with the entry. *)
type resident = {
  ix : Pipeline.indexed;
  bytes : int;
  index_text : string Lazy.t;
}

(* A resident VP-tree metric index: built (or reloaded) once per
   (filtered candidate corpus, metric, variant) and reused across
   nearest requests instead of being rebuilt per call. Keyed by
   {!Tbmd.vp_key}, which commits to the candidates' content keys in
   order — any corpus change is a structural miss. Eviction is safe:
   the persistent metric cache already holds the encoded tree, so a
   re-probe decodes instead of re-measuring. *)
type vp_resident = { vp : Tbmd.vp; vp_bytes : int }

type t = {
  cfg : config;
  lru : resident Lru.t;
  vp_lru : vp_resident Lru.t;
  index_cache : Index_cache.cache;
  ted_cache : Ted_cache.cache;
  metric_cache : Metric_cache.cache;
  mutable queue_depth : int;
  mutable shutting_down : bool;
  mutable since_persist : int;
}

let create cfg =
  let cfg =
    { cfg with jobs = (if cfg.jobs <= 0 then Tbmd.default_jobs () else cfg.jobs) }
  in
  let index_cache =
    match cfg.index_cache_path with
    | Some path -> Index_cache.load_file path
    | None -> Index_cache.create ()
  in
  let ted_cache =
    match cfg.ted_cache_path with
    | Some path -> Ted_cache.load_file path
    | None -> Ted_cache.create ()
  in
  let metric_cache =
    match cfg.metric_cache_path with
    | Some path -> Metric_cache.load_file path
    | None -> Metric_cache.create ()
  in
  let lru = Lru.create ~budget:cfg.lru_budget ~size_of:(fun r -> r.bytes) () in
  let vp_lru =
    Lru.create ~budget:cfg.lru_budget ~size_of:(fun r -> r.vp_bytes) ()
  in
  {
    cfg;
    lru;
    vp_lru;
    index_cache;
    ted_cache;
    metric_cache;
    queue_depth = 0;
    shutting_down = false;
    since_persist = 0;
  }

let config t = t.cfg
let set_queue_depth t d = t.queue_depth <- d
let shutting_down t = t.shutting_down

(* Install the resident caches and worker count into the process-wide
   engine hooks for the duration of [f], restoring whatever was there
   before, so an evaluation cannot leak state into the caller's later
   library use. *)
let with_installed t f =
  let prev_jobs = Tbmd.jobs () in
  let prev_ted = Tbmd.ted_cache () in
  let prev_index = Index_engine.cache () in
  let prev_metric = Tbmd.metric_cache () in
  Tbmd.set_jobs t.cfg.jobs;
  Tbmd.set_ted_cache (Some t.ted_cache);
  Index_engine.set_cache (Some t.index_cache);
  Tbmd.set_metric_cache (Some t.metric_cache);
  let restore () =
    Tbmd.set_jobs prev_jobs;
    Tbmd.set_ted_cache prev_ted;
    Index_engine.set_cache prev_index;
    Tbmd.set_metric_cache prev_metric
  in
  match f () with
  | r ->
      restore ();
      r
  | exception e ->
      restore ();
      raise e

(* --- residency --- *)

let render_index ix =
  let db = Pipeline.to_db ix in
  Sv_db.Codebase_db.stats db ^ "\n"
  ^
  match ix.Pipeline.ix_verification with
  | Some v ->
      Printf.sprintf "built-in verification: %s\n"
        (if v.Pipeline.v_ok then "PASSED" else "FAILED")
  | None -> ""

(* Resolve a list of codebases against the LRU; misses go through the
   cache-aware engine (the resident index cache is installed, so a miss
   here may still be a persistent-cache hit) and become resident.
   Residents are indexed without a run: only the [index] verb reads the
   interpreter's results, and it attaches them itself ([obtain_run]).
   [warm] is true iff everything was already decoded and live. *)
let obtain t cbs =
  let keyed = List.map (fun cb -> (Pipeline.codebase_key cb, cb)) cbs in
  let probed = List.map (fun (key, cb) -> (key, cb, Lru.find t.lru key)) keyed in
  let missing =
    List.filter_map
      (fun (key, cb, hit) -> if hit = None then Some (key, cb) else None)
      probed
  in
  let fresh =
    match missing with
    | [] -> []
    | _ ->
        let ixs = Index_engine.index_many ~run:false (List.map snd missing) in
        List.map2
          (fun (key, _) ix ->
            let r =
              {
                ix;
                bytes =
                  Option.value ~default:0 (Index_cache.length t.index_cache key);
                index_text = lazy (render_index ix);
              }
            in
            Lru.add t.lru key r;
            (key, r))
          missing ixs
  in
  let rs =
    List.map
      (fun (key, _, hit) ->
        match hit with
        | Some r -> r
        | None -> List.assoc key fresh)
      probed
  in
  (rs, missing = [])

let obtain_ix t cbs =
  let rs, warm = obtain t cbs in
  (List.map (fun r -> r.ix) rs, warm)

(* One resident codebase with the interpreter's coverage and verdict:
   the run record is read from the index cache or computed into it, and
   the completed entry replaces the run-less one in the LRU (same
   trees record, so the same budget charge). [warm] additionally requires
   that the run was already resident. *)
let obtain_run t cb =
  match obtain t [ cb ] with
  | [ r ], warm when r.ix.Pipeline.ix_verification <> None -> (r, warm)
  | [ r ], _ ->
      let ix = Index_engine.with_run cb r.ix in
      let r = { r with ix; index_text = lazy (render_index ix) } in
      Lru.add t.lru ix.Pipeline.ix_key r;
      (r, false)
  | _ -> assert false

(* --- renderers (the CLI's exact output) --- *)

let render_compare ~app ~base ~target bix tix =
  let rows =
    List.map
      (fun m ->
        let d, dmax = Tbmd.raw_divergence m bix tix in
        [
          Tbmd.metric_label m;
          string_of_int d;
          string_of_int dmax;
          Printf.sprintf "%.3f" (Tbmd.divergence m bix tix);
        ])
      Tbmd.all_metrics
  in
  Printf.sprintf "divergence %s: %s -> %s\n" app base target
  ^ Report.table ~headers:[ "metric"; "d"; "dmax"; "normalised" ] ~rows

let render_matrix m ixs =
  let matrix = Tbmd.matrix m ixs in
  Report.heatmap
    ~row_labels:(Array.to_list matrix.Sv_cluster.Cluster.labels)
    ~col_labels:(Array.to_list matrix.Sv_cluster.Cluster.labels)
    matrix.Sv_cluster.Cluster.data

let render_cluster m ixs =
  let matrix, dendro = Tbmd.dendrogram m ixs in
  Report.heatmap
    ~row_labels:(Array.to_list matrix.Sv_cluster.Cluster.labels)
    ~col_labels:(Array.to_list matrix.Sv_cluster.Cluster.labels)
    matrix.Sv_cluster.Cluster.data
  ^ Report.dendrogram ~labels:matrix.Sv_cluster.Cluster.labels dendro

let render_nearest ~app ~model ~k ?budget ?epsilon ?index m qix ixs =
  let cands = List.length (Navigation.nearest_candidates ~query:qix ixs) in
  let hits, ledger =
    match index with
    | Some idx -> Navigation.nearest_in idx ~k ?budget ?epsilon qix
    | None -> Navigation.nearest_ports ~metric:m ?budget ?epsilon ~k ~query:qix ixs
  in
  let rows =
    List.map
      (fun (h : Navigation.nearest_hit) ->
        [
          h.Navigation.nh_model;
          h.Navigation.nh_model_name;
          string_of_int h.Navigation.nh_d;
          Printf.sprintf "%.3f" h.Navigation.nh_div;
        ])
      hits
  in
  let approx =
    match (budget, epsilon) with
    | None, None -> ""
    | _ ->
        Printf.sprintf "approximation: budget=%s epsilon=%s guaranteed_exact=%b\n"
          (match budget with Some b -> string_of_int b | None -> "none")
          (match epsilon with Some e -> Printf.sprintf "%g" e | None -> "none")
          ledger.Sv_metric.Vptree.guaranteed_exact
  in
  Printf.sprintf "nearest %s: %s (%s, k=%d)\n" app model (Tbmd.metric_label m) k
  ^ Report.table ~headers:[ "model"; "name"; "d"; "normalised" ] ~rows
  ^ Printf.sprintf "index evaluations: %d of %d candidates\n"
      ledger.Sv_metric.Vptree.evals cands
  ^ approx

(* --- status --- *)

let status_fields t =
  let serve = List.map (fun (k, v) -> (k, J.Int v)) (T.serve_rows T.serve) in
  serve
  @ [
      ("queue_depth", J.Int t.queue_depth);
      ("high_water", J.Int t.cfg.high_water);
      ("jobs", J.Int t.cfg.jobs);
      ("lru_entries", J.Int (Lru.count t.lru));
      ("lru_bytes", J.Int (Lru.bytes t.lru));
      ("lru_budget", J.Int (Lru.budget t.lru));
      ("lru_hits", J.Int (Lru.hits t.lru));
      ("lru_misses", J.Int (Lru.misses t.lru));
      ("lru_evictions", J.Int (Lru.evictions t.lru));
      ("index_entries", J.Int (Index_cache.size t.index_cache));
      ("index_hits", J.Int (Index_cache.hits t.index_cache));
      ("index_misses", J.Int (Index_cache.misses t.index_cache));
      ("ted_entries", J.Int (Ted_cache.size t.ted_cache));
      ("ted_hits", J.Int (Ted_cache.hits t.ted_cache));
      ("ted_misses", J.Int (Ted_cache.misses t.ted_cache));
      ("metric_entries", J.Int (Metric_cache.size t.metric_cache));
      ("metric_hits", J.Int (Metric_cache.hits t.metric_cache));
      ("metric_misses", J.Int (Metric_cache.misses t.metric_cache));
      ("vp_entries", J.Int (Lru.count t.vp_lru));
      ("vp_hits", J.Int (Lru.hits t.vp_lru));
      ("vp_misses", J.Int (Lru.misses t.vp_lru));
    ]

let shed t ~queue payload =
  T.serve.T.requests <- T.serve.T.requests + 1;
  T.serve.T.bytes_in <- T.serve.T.bytes_in + String.length payload;
  T.serve.T.overloaded <- T.serve.T.overloaded + 1;
  let out =
    Protocol.encode_response
      ~id:(Protocol.request_id payload)
      (Protocol.Overloaded { queue; high_water = t.cfg.high_water })
  in
  T.serve.T.bytes_out <- T.serve.T.bytes_out + String.length out;
  out

let oversized _t ~announced ~cap =
  T.serve.T.errors <- T.serve.T.errors + 1;
  let out =
    Protocol.encode_response ~id:None
      (Protocol.Error
         {
           kind = Protocol.Oversized;
           message =
             Printf.sprintf "frame announces %d payload bytes; the cap is %d"
               announced cap;
         })
  in
  T.serve.T.bytes_out <- T.serve.T.bytes_out + String.length out;
  out

(* The ledger line is taken before the save, whose pending entries it
   counts. It ends "(saved to PATH)" also when the run added nothing and
   so wrote nothing: its wording does not depend on what was written. *)
let persist ?(ledger = false) t =
  let save what path stats pending save_file cache =
    let line =
      Printf.sprintf "%s, %d new (saved to %s)" (stats cache) (pending cache) path
    in
    match save_file path cache with
    | () -> if ledger then print_endline line
    | exception Sys_error msg ->
        Printf.eprintf "sv: warning: %s not saved: %s\n%!" what msg
  in
  Option.iter
    (fun path ->
      save "ted-cache" path Ted_cache.stats Ted_cache.pending Ted_cache.save_file
        t.ted_cache)
    t.cfg.ted_cache_path;
  Option.iter
    (fun path ->
      save "index-cache" path Index_cache.stats Index_cache.pending
        Index_cache.save_file t.index_cache)
    t.cfg.index_cache_path;
  Option.iter
    (fun path ->
      save "metric-cache" path Metric_cache.stats Metric_cache.pending
        Metric_cache.save_file t.metric_cache)
    t.cfg.metric_cache_path

(* --- evaluation --- *)

let unknown_app app =
  Protocol.Error
    {
      kind = Protocol.Unknown_app;
      message =
        Printf.sprintf "unknown app %S (expected one of: %s)" app
          (String.concat ", " Apps.app_names);
    }

let unknown_model app model =
  Protocol.Error
    {
      kind = Protocol.Unknown_model;
      message = Printf.sprintf "app %s has no model %s" app model;
    }

let unknown_metric metric =
  Protocol.Error
    {
      kind = Protocol.Unknown_metric;
      message = Printf.sprintf "unknown metric %S" metric;
    }

let invalid_request fmt =
  Printf.ksprintf
    (fun message -> Protocol.Error { kind = Protocol.Invalid_request; message })
    fmt

(* The approximate-search knobs are validated before any work: a
   nonsensical request earns a typed reply, not a [Failed] raise and
   not a silently clamped answer. *)
let check_nearest ~k ~budget ~epsilon =
  if k <= 0 then Some (invalid_request "k must be at least 1 (got %d)" k)
  else
    match budget with
    | Some b when b < 0 ->
        Some (invalid_request "budget must be non-negative (got %d)" b)
    | _ -> (
        match epsilon with
        | Some e when (not (Float.is_finite e)) || e < 0. ->
            Some (invalid_request "epsilon must be a finite number >= 0 (got %g)" e)
        | _ -> None)

let with_metric metric k =
  match Tbmd.metric_of_string metric with
  | None -> unknown_metric metric
  | Some m -> k m

let with_app app k =
  match Apps.corpus_of_app app with
  | None -> unknown_app app
  | Some cbs -> k cbs

let output verb warm out = Protocol.Output { verb; warm; output = out }

let evaluate t req =
  match req with
  | Protocol.Status -> Protocol.Status_of (status_fields t)
  | Protocol.Shutdown ->
      t.shutting_down <- true;
      persist t;
      Protocol.Shutdown_ack
  | Protocol.Index { app; model } ->
      with_app app (fun cbs ->
          match Apps.find_codebase ~app cbs model with
          | None -> unknown_model app model
          | Some cb ->
              with_installed t (fun () ->
                  let r, warm = obtain_run t cb in
                  output "index" warm (Lazy.force r.index_text)))
  | Protocol.Compare { app; base; target } ->
      with_app app (fun cbs ->
          match
            (Apps.find_codebase ~app cbs base, Apps.find_codebase ~app cbs target)
          with
          | Some b, Some tg ->
              with_installed t (fun () ->
                  let ixs, warm = obtain_ix t [ b; tg ] in
                  match ixs with
                  | [ bix; tix ] ->
                      output "compare" warm
                        (render_compare ~app ~base ~target bix tix)
                  | _ -> assert false)
          | None, _ -> unknown_model app base
          | _, None -> unknown_model app target)
  | Protocol.Matrix { app; metric } ->
      with_metric metric (fun m ->
          with_app app (fun cbs ->
              with_installed t (fun () ->
                  let ixs, warm = obtain_ix t cbs in
                  output "matrix" warm (render_matrix m ixs))))
  | Protocol.Cluster { app; metric } ->
      with_metric metric (fun m ->
          with_app app (fun cbs ->
              with_installed t (fun () ->
                  let ixs, warm = obtain_ix t cbs in
                  output "cluster" warm (render_cluster m ixs))))
  | Protocol.Nearest { app; model; metric; k; budget; epsilon } -> (
      match check_nearest ~k ~budget ~epsilon with
      | Some err -> err
      | None ->
          with_metric metric (fun m ->
              with_app app (fun cbs ->
                  match Apps.find_codebase ~app cbs model with
                  | None -> unknown_model app model
                  | Some cb ->
                      with_installed t (fun () ->
                          let ixs, warm = obtain_ix t cbs in
                          let qix = List.assq cb (List.combine cbs ixs) in
                          let cands = Navigation.nearest_candidates ~query:qix ixs in
                          let index =
                            match cands with
                            | [] -> None
                            | _ -> (
                                let key = Tbmd.vp_key m cands in
                                match Lru.find t.vp_lru key with
                                | Some r -> Some r.vp
                                | None ->
                                    Option.map
                                      (fun vp ->
                                        (* words of repr, roughly: the
                                           budget heuristic, not an
                                           exact account *)
                                        let vp_bytes =
                                          8 * 9 * List.length cands
                                        in
                                        Lru.add t.vp_lru key { vp; vp_bytes };
                                        vp)
                                      (Navigation.nearest_index ~metric:m cands))
                          in
                          output "nearest" warm
                            (render_nearest ~app ~model ~k ?budget ?epsilon
                               ?index m qix ixs)))))

let handle t req =
  match evaluate t req with
  | resp -> resp
  | exception e ->
      Protocol.Error { kind = Protocol.Failed; message = Printexc.to_string e }

let handle_payload t payload =
  let t0 = Unix.gettimeofday () in
  T.serve.T.requests <- T.serve.T.requests + 1;
  T.serve.T.bytes_in <- T.serve.T.bytes_in + String.length payload;
  let id, resp =
    match Protocol.decode_request payload with
    | Error (kind, message) ->
        (Protocol.request_id payload, Protocol.Error { kind; message })
    | Ok (id, req) -> (id, handle t req)
  in
  (match resp with
  | Protocol.Output { warm; _ } ->
      T.serve.T.served <- T.serve.T.served + 1;
      if warm then T.serve.T.warm_hits <- T.serve.T.warm_hits + 1
      else T.serve.T.cold_misses <- T.serve.T.cold_misses + 1
  | Protocol.Status_of _ | Protocol.Shutdown_ack ->
      T.serve.T.served <- T.serve.T.served + 1
  | Protocol.Error _ -> T.serve.T.errors <- T.serve.T.errors + 1
  | Protocol.Overloaded _ -> T.serve.T.overloaded <- T.serve.T.overloaded + 1);
  let out = Protocol.encode_response ~id resp in
  T.serve.T.bytes_out <- T.serve.T.bytes_out + String.length out;
  T.serve.T.usec_total <-
    T.serve.T.usec_total
    + int_of_float ((Unix.gettimeofday () -. t0) *. 1e6);
  t.since_persist <- t.since_persist + 1;
  if t.cfg.persist_every > 0 && t.since_persist >= t.cfg.persist_every then begin
    t.since_persist <- 0;
    persist t
  end;
  out
