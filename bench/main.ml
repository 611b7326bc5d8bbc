(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Tables I-III, Figs. 4-15), plus the artifact
   checks (corpus verification, Codebase DB stats) and the ablations of
   the design choices DESIGN.md calls out. Timing lives in perfbench/.

   Usage: main.exe [experiment ...]
   with experiments in {table1 table2 table3 fig4 ... fig15 verify db
   ablation-match ablation-weights ablation-linkage structure
   extension-raja all}. Default: all. *)

module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Report = Sv_report.Report
module Pmodel = Sv_perf.Pmodel
module Platform = Sv_perf.Platform
module Cluster = Sv_cluster.Cluster

let section title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* corpora, indexed once                                               *)
(* ------------------------------------------------------------------ *)

(* Corpus indexing goes through the engine: SV_INDEX_CACHE persists
   indexing results across bench invocations, SV_JOBS fans cold misses
   over the worker pool. Neither changes a byte of any experiment. *)
let () =
  match Sys.getenv_opt "SV_INDEX_CACHE" with
  | None -> ()
  | Some path ->
      Sv_core.Index_engine.set_cache (Some (Sv_db.Index_cache.load_file path));
      at_exit (fun () ->
          match Sv_core.Index_engine.cache () with
          | Some c ->
              Sv_db.Index_cache.save_file path c;
              Printf.eprintf "[bench] %s (saved to %s)\n%!"
                (Sv_db.Index_cache.stats c) path
          | None -> ())

let index_all name cbs =
  let t0 = Unix.gettimeofday () in
  let jobs =
    match Sys.getenv_opt "SV_JOBS" with
    | Some _ -> Sv_sched.Sched.default_jobs ()
    | None -> 1
  in
  let ixs = Sv_core.Index_engine.index_many ~jobs cbs in
  Printf.eprintf "[bench] indexed %s (%d models) in %.1fs\n%!" name (List.length ixs)
    (Unix.gettimeofday () -. t0);
  ixs

let tealeaf = lazy (index_all "TeaLeaf" (Sv_corpus.Tealeaf.all ()))
let cloverleaf = lazy (index_all "CloverLeaf" (Sv_corpus.Cloverleaf.all ()))
let minibude = lazy (index_all "miniBUDE" (Sv_corpus.Minibude.all ()))
let babelstream = lazy (index_all "BabelStream" (Sv_corpus.Babelstream.all ()))
let babelstream_f = lazy (index_all "BabelStream-Fortran" (Sv_corpus.Babelstream_f.all ()))

let find_model ixs id = List.find (fun (c : Pipeline.indexed) -> c.ix_model = id) ixs

(* ------------------------------------------------------------------ *)
(* tables                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: codebase summarisation metrics";
  let module C = Sv_metrics.Catalog in
  let rows =
    List.map
      (fun (e : C.entry) ->
        [
          e.C.name;
          C.measure_name e.C.measure;
          String.concat ", "
            (List.map C.domain_name e.C.domains
            @ if e.C.language_agnostic then [ "Language agnostic" ] else []);
          String.concat " " e.C.variants;
        ])
      C.all
  in
  print_string (Report.table ~headers:[ "Metric"; "Measure"; "Domain"; "Variants" ] ~rows)

let table2 () =
  section "Table II: mini-apps and models";
  let row app ty models = [ app; ty; String.concat ", " models ] in
  let c_models =
    List.filter_map
      (fun id -> Option.map Sv_corpus.Emit.model_name (Sv_corpus.Emit.gen_for id))
      Sv_corpus.Emit.all_ids
  in
  let f_models = List.map Sv_corpus.Babelstream_f.model_name Sv_corpus.Babelstream_f.model_ids in
  print_string
    (Report.table
       ~headers:[ "Mini-app"; "Type"; "Models" ]
       ~rows:
         [
           row "BabelStream Fortran" "Memory BW" f_models;
           row "BabelStream C++" "Memory BW" c_models;
           row "miniBUDE" "Compute" c_models;
           row "TeaLeaf" "Structured grid" c_models;
           row "CloverLeaf" "Memory BW" c_models;
         ])

let table3 () =
  section "Table III: platform details for Phi benchmarks";
  let rows =
    List.map
      (fun (p : Platform.t) ->
        [
          p.Platform.vendor;
          p.Platform.name;
          p.Platform.abbr;
          p.Platform.topology;
          Printf.sprintf "%.0f GB/s" p.Platform.peak_bw_gbs;
          Printf.sprintf "%.0f GFLOP/s" p.Platform.peak_gflops;
        ])
      Platform.all
  in
  print_string
    (Report.table
       ~headers:[ "Vendor"; "Name"; "Abbr."; "Topology"; "Peak BW"; "Peak FP64" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* clustering figures                                                  *)
(* ------------------------------------------------------------------ *)

let clustering_figure ~title ~metrics ixs =
  section title;
  List.iter
    (fun metric ->
      let m, d = Tbmd.dendrogram metric ixs in
      Printf.printf "\n--- %s ---\n" (Tbmd.metric_label metric);
      (match metric with
      | Tbmd.SLOC | Tbmd.LLOC ->
          (* absolute metrics: also show the raw values the clustering uses *)
          List.iter
            (fun (c : Pipeline.indexed) ->
              match Tbmd.absolute metric c with
              | Some v -> Printf.printf "  %-18s %d\n" c.ix_model_name v
              | None -> ())
            ixs
      | _ -> ());
      print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d))
    metrics

let fig4 () =
  let ixs = Lazy.force tealeaf in
  section "Fig. 4: TeaLeaf model clustering, using T_sem";
  let m, d = Tbmd.dendrogram Tbmd.TSem ixs in
  print_string
    (Report.heatmap
       ~row_labels:(Array.to_list m.Sv_cluster.Cluster.labels)
       ~col_labels:(Array.to_list m.Sv_cluster.Cluster.labels)
       m.Sv_cluster.Cluster.data);
  print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d)

let fig5 () =
  clustering_figure
    ~title:"Fig. 5: TeaLeaf model clustering dendrograms (6 metrics)"
    ~metrics:[ Tbmd.LLOC; Tbmd.SLOC; Tbmd.Source; Tbmd.TSrc; Tbmd.TSem; Tbmd.TIr ]
    (Lazy.force tealeaf)

let fig6 () =
  clustering_figure
    ~title:"Fig. 6: BabelStream Fortran model clustering dendrograms (6 metrics)"
    ~metrics:[ Tbmd.LLOC; Tbmd.SLOC; Tbmd.Source; Tbmd.TSrc; Tbmd.TSem; Tbmd.TIr ]
    (Lazy.force babelstream_f)

(* ------------------------------------------------------------------ *)
(* divergence-from-serial heatmaps (Figs. 7-8)                          *)
(* ------------------------------------------------------------------ *)

let divergence_heatmap ~title ixs =
  section title;
  let serial = find_model ixs "serial" in
  let models = List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs in
  let columns =
    [
      ("SLOC", (Tbmd.SLOC, Tbmd.Base));
      ("LLOC", (Tbmd.LLOC, Tbmd.Base));
      ("Source", (Tbmd.Source, Tbmd.Base));
      ("Source+pp", (Tbmd.Source, Tbmd.PP));
      ("T_src", (Tbmd.TSrc, Tbmd.Base));
      ("T_src+cov", (Tbmd.TSrc, Tbmd.Cov));
      ("T_sem", (Tbmd.TSem, Tbmd.Base));
      ("T_sem+i", (Tbmd.TSemI, Tbmd.Base));
      ("T_sem+cov", (Tbmd.TSem, Tbmd.Cov));
      ("T_ir", (Tbmd.TIr, Tbmd.Base));
    ]
  in
  let data =
    Array.of_list
      (List.map
         (fun c ->
           Array.of_list
             (List.map
                (fun (_, (m, v)) -> Tbmd.divergence ~variant:v m serial c)
                columns))
         models)
  in
  print_string
    (Report.heatmap
       ~row_labels:(List.map (fun (c : Pipeline.indexed) -> c.ix_model_name) models)
       ~col_labels:(List.map fst columns) data);
  (* the serial-vs-itself sanity column of §V-C *)
  let self =
    List.map (fun (_, (m, v)) -> Tbmd.divergence ~variant:v m serial serial) columns
  in
  Printf.printf "serial vs itself (all metrics): [%s]\n"
    (String.concat "; " (List.map (Printf.sprintf "%.2f") self))

let fig7 () =
  divergence_heatmap
    ~title:"Fig. 7: miniBUDE models, divergence from serial (0..1)"
    (Lazy.force minibude)

let fig8 () =
  divergence_heatmap
    ~title:"Fig. 8: CloverLeaf models, divergence from serial (0..1)"
    (Lazy.force cloverleaf)

(* ------------------------------------------------------------------ *)
(* migration (Figs. 9-10)                                               *)
(* ------------------------------------------------------------------ *)

let offload_ids = [ "omp-target"; "cuda"; "hip"; "sycl-usm"; "sycl-acc"; "kokkos" ]

let migration_figure ~title ~base_id () =
  let ixs = Lazy.force tealeaf in
  section title;
  let base = find_model ixs base_id in
  let targets =
    List.filter
      (fun (c : Pipeline.indexed) ->
        List.mem c.ix_model offload_ids && c.ix_model <> base_id)
      ixs
  in
  let metrics =
    [ (Tbmd.Source, Tbmd.Base); (Tbmd.TSrc, Tbmd.Base); (Tbmd.TSem, Tbmd.Base) ]
  in
  let rows = Sv_core.Migration.divergence_from ~base ~targets ~metrics in
  List.iter
    (fun (r : Sv_core.Migration.row) ->
      Printf.printf "\n%s:\n" r.Sv_core.Migration.target;
      print_string (Report.bars r.Sv_core.Migration.values))
    rows;
  (match Sv_core.Migration.cheapest ~metric:Tbmd.TSem rows with
  | Some (m, v) -> Printf.printf "\nlowest T_sem divergence from %s: %s (%.3f)\n" base_id m v
  | None -> ())

let fig9 = migration_figure ~title:"Fig. 9: model divergence from the serial TeaLeaf" ~base_id:"serial"
let fig10 = migration_figure ~title:"Fig. 10: model divergence from the CUDA TeaLeaf" ~base_id:"cuda"

(* ------------------------------------------------------------------ *)
(* performance portability (Figs. 11-15)                                *)
(* ------------------------------------------------------------------ *)

let cascade_figure ~title ~app () =
  section title;
  print_string
    (Report.cascade
       (Sv_perf.Cascade.cascade ~app ~models:Pmodel.all_parallel
          ~platforms:Platform.all))

let fig11 = cascade_figure ~title:"Fig. 11: TeaLeaf cascade plot (6 platforms)" ~app:Pmodel.tealeaf
let fig12 = cascade_figure ~title:"Fig. 12: CloverLeaf cascade plot (6 platforms)" ~app:Pmodel.cloverleaf

let navigation_figure ~title ~app ixs_lazy () =
  section title;
  let ixs = Lazy.force ixs_lazy in
  let serial = find_model ixs "serial" in
  let pts =
    Sv_core.Navigation.points ~app ~serial
      ~codebases:(List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs)
      ~platforms:Platform.all
  in
  print_string (Sv_core.Navigation.render pts)

let fig13 =
  navigation_figure ~title:"Fig. 13: CloverLeaf navigation chart (Phi vs TBMD)"
    ~app:Pmodel.cloverleaf cloverleaf

let fig14 =
  navigation_figure ~title:"Fig. 14: TeaLeaf navigation chart (Phi vs TBMD)"
    ~app:Pmodel.tealeaf tealeaf

let fig15 () =
  section "Fig. 15: navigation chart scenario — escaping an unportable model";
  let ixs = Lazy.force tealeaf in
  let serial = find_model ixs "serial" in
  let stages =
    Sv_core.Navigation.cuda_scenario ~app:Pmodel.tealeaf ~serial
      ~codebases:(List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs)
  in
  List.iter
    (fun (s : Sv_core.Navigation.scenario_stage) ->
      Printf.printf "stage %d (%s): %s\n" s.Sv_core.Navigation.stage
        (String.concat "+" s.Sv_core.Navigation.platform_abbrs)
        s.Sv_core.Navigation.description;
      Printf.printf "  Phi(CUDA) = %.3f" s.Sv_core.Navigation.phi_cuda;
      (match s.Sv_core.Navigation.best_alternative with
      | Some (m, v) -> Printf.printf "; best alternative: %s (Phi = %.3f)\n" m v
      | None -> print_newline ()))
    stages;
  (* the stage-3 chart over the two-GPU platform set *)
  let pts =
    Sv_core.Navigation.points ~app:Pmodel.tealeaf ~serial
      ~codebases:(List.filter (fun (c : Pipeline.indexed) -> c.ix_model <> "serial") ixs)
      ~platforms:[ Platform.h100; Platform.mi250x ]
  in
  print_string (Sv_core.Navigation.render pts)

(* ------------------------------------------------------------------ *)
(* artifact checks                                                     *)
(* ------------------------------------------------------------------ *)

let verify () =
  section "Artifact check: built-in verification of every port";
  let check name ixs =
    List.iter
      (fun (c : Pipeline.indexed) ->
        let ok, steps =
          match c.Pipeline.ix_verification with
          | Some v -> (v.Pipeline.v_ok, v.Pipeline.v_steps)
          | None -> (false, 0)
        in
        Printf.printf "  %-22s %-14s %-6s (%d steps)\n" name c.ix_model
          (if ok then "PASSED" else "FAILED")
          steps)
      ixs
  in
  check "BabelStream (C++)" (Lazy.force babelstream);
  check "BabelStream (Fortran)" (Lazy.force babelstream_f);
  check "miniBUDE" (Lazy.force minibude);
  check "TeaLeaf" (Lazy.force tealeaf);
  check "CloverLeaf" (Lazy.force cloverleaf)

let db () =
  section "Artifact check: Codebase DB round-trip and compression";
  List.iter
    (fun (c : Pipeline.indexed) ->
      let artifact = Pipeline.to_db c in
      let bytes = Sv_db.Codebase_db.save artifact in
      let reread = Sv_db.Codebase_db.load bytes in
      let ok =
        match reread with
        | Ok db -> db = artifact
        | Error _ -> false
      in
      Printf.printf "  %s  round-trip:%s\n" (Sv_db.Codebase_db.stats artifact)
        (if ok then "OK" else "FAILED"))
    (Lazy.force tealeaf)

(* ------------------------------------------------------------------ *)
(* ablations (design choices called out in DESIGN.md / the paper)      *)
(* ------------------------------------------------------------------ *)

(* §III-C: the match function trades exactness for speed. How tight is
   the matched upper bound, and how much faster is it? *)
let ablation_match () =
  section "Ablation: whole-tree TED vs matched decomposition (the paper's `match`)";
  let ixs = Lazy.force tealeaf in
  let serial = find_model ixs "serial" in
  let su = (List.hd serial.ix_units).Pipeline.u_t_sem in
  (* The wall times go to stderr, so stdout stays byte-reproducible and
     test/golden can pin it. *)
  Printf.printf "%-18s %8s %8s %8s\n" "model" "exact" "matched" "ratio";
  List.iter
    (fun (c : Pipeline.indexed) ->
      if c.ix_model <> "serial" then begin
        let t = (List.hd c.ix_units).Pipeline.u_t_sem in
        let time f =
          let t0 = Sys.time () in
          let v = f () in
          (v, Sys.time () -. t0)
        in
        let exact, te = time (fun () -> Sv_metrics.Divergence.tree_distance su t) in
        let matched, tm =
          time (fun () -> Sv_metrics.Divergence.tree_distance_matched su t)
        in
        Printf.printf "%-18s %8d %8d %8.3f\n" c.ix_model_name exact matched
          (float_of_int matched /. float_of_int (max 1 exact));
        Printf.eprintf "[bench] ablation-match %s: t_exact %.2fs t_match %.2fs\n%!"
          c.ix_model_name te tm
      end)
    ixs

(* §III-B: unit costs vs weighted operations ("adding new code may have a
   different productivity impact than removing existing code"). *)
let ablation_weights () =
  section "Ablation: unit-cost vs insertion-weighted TED";
  let ixs = Lazy.force babelstream in
  let serial = find_model ixs "serial" in
  let su = (List.hd serial.ix_units).Pipeline.u_t_sem in
  let weighted =
    {
      Sv_tree.Ted.delete = (fun _ -> 1);
      insert = (fun _ -> 2);  (* writing new code costs double *)
      relabel =
        (fun a b -> if Sv_tree.Label.equal a b then 0 else 2);
    }
  in
  Printf.printf "%-18s %10s %10s\n" "model" "unit" "ins-weighted";
  List.iter
    (fun (c : Pipeline.indexed) ->
      if c.ix_model <> "serial" then begin
        let t = (List.hd c.ix_units).Pipeline.u_t_sem in
        let unit_d = Sv_metrics.Divergence.tree_distance su t in
        let w =
          Sv_tree.Ted.distance ~costs:weighted ~eq:Sv_tree.Label.equal su t
        in
        Printf.printf "%-18s %10d %10d\n" c.ix_model_name unit_d w
      end)
    ixs

(* Fig. 4 uses complete linkage; how sensitive is the clustering? *)
let ablation_linkage () =
  section "Ablation: dendrogram linkage (complete vs average vs single)";
  let ixs = Lazy.force babelstream in
  List.iter
    (fun (name, linkage) ->
      Printf.printf "\n--- %s linkage, T_sem ---\n" name;
      let m, d = Tbmd.dendrogram ~linkage Tbmd.TSem ixs in
      print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d))
    [
      ("complete", Sv_cluster.Cluster.Complete);
      ("average", Sv_cluster.Cluster.Average);
      ("single", Sv_cluster.Cluster.Single);
    ]

(* §III-A's secondary metrics over the corpus *)
let structure () =
  section "Secondary metrics: module coupling and tree complexity (§III-A)";
  let ixs = Lazy.force tealeaf in
  List.iter
    (fun (c : Pipeline.indexed) ->
      let u = List.hd c.ix_units in
      let coupling =
        Sv_metrics.Structure.coupling_of_deps ~root:u.Pipeline.u_file
          [ (u.Pipeline.u_file, u.Pipeline.u_deps) ]
      in
      let cx = Sv_metrics.Structure.complexity u.Pipeline.u_t_sem in
      Printf.printf "  %-18s deps=%d coupling=%.2f  T_sem %s\n" c.ix_model_name
        coupling.Sv_metrics.Structure.edges
        coupling.Sv_metrics.Structure.coupling_ratio
        (Format.asprintf "%a" Sv_metrics.Structure.pp_complexity cx))
    ixs

(* RAJA: mentioned in the paper's introduction next to Kokkos but outside
   its Table II evaluation — included here as an extension model. *)
let extension_raja () =
  section "Extension: the RAJA model (beyond the paper's Table II set)";
  let cbs =
    List.filter_map
      (fun m -> Sv_corpus.Babelstream.codebase ~model:m)
      Sv_corpus.Emit.extended_ids
  in
  let ixs = List.map Pipeline.index cbs in
  let serial = find_model ixs "serial" in
  Printf.printf "divergence from serial (BabelStream):\n";
  List.iter
    (fun (c : Pipeline.indexed) ->
      if c.ix_model <> "serial" then
        Printf.printf "  %-18s T_src %.3f  T_sem %.3f  T_sem+i %.3f\n" c.ix_model_name
          (Tbmd.divergence Tbmd.TSrc serial c)
          (Tbmd.divergence Tbmd.TSem serial c)
          (Tbmd.divergence Tbmd.TSemI serial c))
    ixs;
  Printf.printf "\nclustering with RAJA included (T_sem):\n";
  let m, d = Tbmd.dendrogram Tbmd.TSem ixs in
  print_string (Report.dendrogram ~labels:m.Sv_cluster.Cluster.labels d)

let experiments =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("fig13", fig13); ("fig14", fig14); ("fig15", fig15);
    ("verify", verify); ("db", db);
    ("ablation-match", ablation_match); ("ablation-weights", ablation_weights);
    ("ablation-linkage", ablation_linkage); ("structure", structure);
    ("extension-raja", extension_raja);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let requested =
    match args with
    | args when args <> [] && args <> [ "all" ] -> args
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested
