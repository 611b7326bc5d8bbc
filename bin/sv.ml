(* sv — the SilverVale-ML command line.

   Subcommands mirror the paper's workflow (§IV, Fig. 2):
     emit     write a mini-app port (sources + compile_commands.json) to disk
     index    run the pipeline on a port and save the Codebase DB artifact
     inspect  print the stats of a saved Codebase DB
     compare  divergence of one model from a base model, all metrics
     cluster  divergence matrix + dendrogram for an app under one metric
     nearest  k nearest ports to a model through the VP-tree metric index
     phi      cascade plot (performance portability)
     chart    navigation chart (Phi vs TBMD)
     verify   run every port's built-in verification
     gen      emit a seeded synthetic corpus of verified program variants
     models   list apps, models and platforms
     serve    run the resident daemon on a Unix domain socket
     client   send one request to the daemon (in-process when none listens)

   compare, cluster and nearest are one request each to a
   {!Sv_serve.Engine} built from the command's flags, the evaluator the
   daemon runs, so both print the same bytes; index and verify read the
   interpreter's results inside the engine's installed caches. Each
   command then persists the caches it was given and prints their ledger
   lines. *)

open Cmdliner

module Pipeline = Sv_core.Pipeline
module Report = Sv_report.Report
module Apps = Sv_core.Apps
module Gen = Sv_gen.Gen
module Engine = Sv_serve.Engine
module Protocol = Sv_serve.Protocol

let perf_app_of = Apps.perf_app_of
let find_codebase = Apps.find_codebase
let app_names = Apps.app_names

let fail fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

let with_app app f =
  match Apps.corpus_of_app app with
  | Some cbs -> f cbs
  | None -> fail "unknown app %S (expected one of: %s)" app (String.concat ", " app_names)

(* --- args --- *)

let app_arg =
  Arg.(required & opt (some string) None & info [ "app"; "a" ] ~docv:"APP"
         ~doc:"Mini-app: babelstream, babelstream-f, tealeaf, cloverleaf, minibude.")

let model_arg names doc =
  Arg.(required & opt (some string) None & info names ~docv:"MODEL" ~doc)

let metric_arg =
  Arg.(value & opt string "t_sem" & info [ "metric"; "m" ] ~docv:"METRIC"
         ~doc:"Metric: sloc, lloc, source, t_src, t_sem, t_sem+i, t_ir.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Domains that run the TED matrix's tree-edit DPs (0 = one per \
               core, 1 = serial). Only $(b,cluster) and the daemon's \
               $(b,matrix) and $(b,cluster) verbs build a matrix; every \
               other command accepts the flag and runs serially. The \
               output is the same for every N.")

let ted_cache_arg =
  Arg.(value & opt (some string) None & info [ "ted-cache" ] ~docv:"FILE"
         ~doc:"Persistent TED memo cache file. Loaded before the run (a \
               missing or damaged file is a cold start); the distances \
               the run computed are appended after it, and a run that \
               computed none writes nothing. Re-runs over unchanged \
               units skip the tree-edit-distance DP entirely.")

let index_cache_arg =
  Arg.(value & opt (some string) None
       & info [ "index-cache" ]
           ~env:(Cmd.Env.info "SV_INDEX_CACHE") ~docv:"FILE"
           ~doc:"Persistent index cache file. Loaded before the run (a \
                 missing or damaged file is a cold start); new entries \
                 are appended after it, and a warm run writes nothing. \
                 Re-runs over unchanged sources skip preprocessing, \
                 parsing, lowering and interpretation entirely. Keyed on \
                 source digest, defines, dialect and pipeline version — \
                 any change is an automatic miss, never a stale result.")

let metric_cache_arg =
  Arg.(value & opt (some string) None
       & info [ "metric-cache" ]
           ~env:(Cmd.Env.info "SV_METRIC_CACHE") ~docv:"FILE"
           ~doc:"Persistent VP-tree metric-index cache file. Loaded before \
                 the run (a missing or damaged file is a cold start); new \
                 indexes are appended after it, and a warm run writes \
                 nothing. A re-run of $(b,nearest) over an unchanged \
                 corpus reloads the index with zero build evaluations and \
                 answers byte-identically to a cold build. Keyed on the \
                 corpus digest, metric, variant and schema version — any \
                 change is an automatic miss, never a stale index.")

let budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"Cap the nearest-neighbour search at N distance evaluations \
               (best-first over lower bounds, so the budget goes to the \
               most promising subtrees first). The output's ledger line \
               reports guaranteed_exact=false only when the cap actually \
               cut the search short.")

let epsilon_arg =
  Arg.(value & opt (some float) None & info [ "epsilon" ] ~docv:"E"
         ~doc:"Relative slack for approximate nearest-neighbour search: \
               subtrees whose lower bound exceeds tau/(1+E) are skipped, \
               so every reported rank-i distance is at most (1+E) times \
               the true one. 0 keeps the search exact.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print TED engine counters after the run: pairs settled \
           without a DP (equal trees), DP runs and their forest-table \
           cells, flat compiles, and left/right strategy picks.")

(* The engine configuration a command's flags select: the daemon, the
   client's in-process fallback and the one-shot commands all build
   their engine from it. *)
let engine_config ?(jobs = 1) ?lru_mb ?(high_water = 8) ?ted_cache
    ?index_cache ?metric_cache () =
  let base = Engine.default_config () in
  {
    base with
    Engine.jobs;
    lru_budget =
      (match lru_mb with
      | Some mb when mb > 0 -> mb * 1024 * 1024
      | _ -> base.Engine.lru_budget);
    high_water;
    ted_cache_path = ted_cache;
    index_cache_path = index_cache;
    metric_cache_path = metric_cache;
  }

(* Print a reply the way both the one-shot commands and `sv client` do:
   output and status on stdout, typed errors as the command's error. *)
let print_reply = function
  | Protocol.Output { output; _ } ->
      print_string output;
      `Ok ()
  | Protocol.Status_of fields ->
      List.iter
        (fun (k, v) -> Printf.printf "%-14s %s\n" k (Sv_jsonx.Jsonx.to_string v))
        fields;
      `Ok ()
  | Protocol.Shutdown_ack ->
      print_endline "shutdown acknowledged";
      `Ok ()
  | Protocol.Error { kind; message } ->
      fail "%s: %s" (Protocol.kind_to_string kind) message
  | Protocol.Overloaded { queue; high_water } ->
      fail "daemon overloaded (queue %d at high-water %d); retry later" queue
        high_water

(* Evaluate one request on an engine built from the command's flags,
   print the reply, then [footer], then persist the caches with their
   ledger lines. *)
let one_shot ?(footer = ignore) ~jobs ?ted_cache ?index_cache ?metric_cache req =
  let engine =
    Engine.create (engine_config ~jobs ?ted_cache ?index_cache ?metric_cache ())
  in
  match print_reply (Engine.handle engine req) with
  | `Ok () ->
      footer ();
      Engine.persist ~ledger:true engine;
      `Ok ()
  | err -> err

(* --- commands --- *)

let models_cmd =
  let run () =
    print_endline "mini-apps:";
    List.iter (fun a -> Printf.printf "  %s\n" a) app_names;
    print_endline "\nC++ models:";
    List.iter
      (fun id ->
        match Sv_corpus.Emit.gen_for id with
        | Some g ->
            Printf.printf "  %-12s %s%s\n" id (Sv_corpus.Emit.model_name g)
              (if List.mem id Sv_corpus.Emit.all_ids then ""
               else " (extension, outside the paper's Table II)")
        | None -> ())
      Sv_corpus.Emit.extended_ids;
    print_endline "\nFortran models (babelstream-f):";
    List.iter
      (fun id -> Printf.printf "  %-12s %s\n" id (Sv_corpus.Babelstream_f.model_name id))
      Sv_corpus.Babelstream_f.model_ids;
    print_endline "\nplatforms:";
    List.iter
      (fun (p : Sv_perf.Platform.t) ->
        Printf.printf "  %-7s %s (%s)\n" p.Sv_perf.Platform.abbr p.Sv_perf.Platform.name
          p.Sv_perf.Platform.vendor)
      Sv_perf.Platform.all;
    `Ok ()
  in
  Cmd.v (Cmd.info "models" ~doc:"List mini-apps, programming models and platforms.")
    Term.(ret (const run $ const ()))

let emit_cmd =
  let run app model out =
    with_app app (fun cbs ->
        match find_codebase ~app cbs model with
        | None -> fail "app %s has no model %s" app model
        | Some cb ->
            (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            List.iter
              (fun (name, content) ->
                let oc = open_out (Filename.concat out name) in
                output_string oc content;
                close_out oc)
              cb.Sv_corpus.Emit.files;
            let entry =
              {
                Sv_db.Compdb.directory = out;
                file = cb.Sv_corpus.Emit.main_file;
                arguments =
                  [ "cc"; "-O3" ]
                  @ List.map (fun (k, v) -> Printf.sprintf "-D%s=%s" k v)
                      cb.Sv_corpus.Emit.defines
                  @ [ cb.Sv_corpus.Emit.main_file ];
              }
            in
            let oc = open_out (Filename.concat out "compile_commands.json") in
            output_string oc (Sv_db.Compdb.to_json_string [ entry ]);
            close_out oc;
            Printf.printf "wrote %d files + compile_commands.json to %s\n"
              (List.length cb.Sv_corpus.Emit.files) out;
            `Ok ())
  in
  let out =
    Arg.(value & opt string "." & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Write one mini-app port's sources and compilation DB to disk.")
    Term.(ret (const run $ app_arg $ model_arg [ "model" ] "Model id." $ out))

let index_cmd =
  let run app model out index_cache =
    with_app app (fun cbs ->
        match find_codebase ~app cbs model with
        | None -> fail "app %s has no model %s" app model
        | Some cb ->
            let engine = Engine.create (engine_config ?index_cache ()) in
            let ix =
              Engine.with_installed engine (fun () -> Sv_core.Index_engine.index cb)
            in
            let bytes = Sv_db.Codebase_db.save (Pipeline.to_db ix) in
            let oc = open_out_bin out in
            output_string oc bytes;
            close_out oc;
            print_string (Engine.render_index ix);
            Printf.printf "saved Codebase DB to %s (%d bytes)\n" out (String.length bytes);
            Engine.persist ~ledger:true engine;
            `Ok ())
  in
  let out =
    Arg.(value & opt string "codebase.svdb" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output artifact path.")
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Index one port (preprocess, parse, lower, run) and save its Codebase DB.")
    Term.(
      ret
        (const run $ app_arg $ model_arg [ "model" ] "Model id." $ out
        $ index_cache_arg))

let inspect_cmd =
  let run path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let bytes = really_input_string ic len in
    close_in ic;
    match Sv_db.Codebase_db.load bytes with
    | Error e -> fail "cannot load %s: %s" path e
    | Ok db ->
        Printf.printf "%s\n" (Sv_db.Codebase_db.stats db);
        List.iter
          (fun (u : Sv_db.Codebase_db.unit_record) ->
            Printf.printf "  unit %s: sloc=%d lloc=%d deps=[%s]\n" u.ur_file u.ur_sloc
              u.ur_lloc
              (String.concat ", " u.ur_deps);
            List.iter
              (fun (name, t) ->
                Printf.printf "    %-12s %d nodes\n" name (Sv_tree.Tree.size t))
              u.ur_trees)
          db.Sv_db.Codebase_db.db_units;
        `Ok ()
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "inspect" ~doc:"Print the contents of a saved Codebase DB.")
    Term.(ret (const run $ path))

let compare_cmd =
  let run app base target jobs ted_cache index_cache stats =
    if stats then Sv_perf.Telemetry.reset_ted ();
    one_shot ~jobs ?ted_cache ?index_cache
      ~footer:(fun () ->
        if stats then
          print_endline (Sv_perf.Telemetry.ted_to_string Sv_perf.Telemetry.ted))
      (Protocol.Compare { app; base; target })
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Divergence of a target model from a base model.")
    Term.(
      ret
        (const run $ app_arg
        $ model_arg [ "base"; "b" ] "Base model id (the port's origin)."
        $ model_arg [ "target"; "t" ] "Target model id."
        $ jobs_arg $ ted_cache_arg $ index_cache_arg $ stats_arg))

let cluster_cmd =
  let run app metric jobs ted_cache index_cache =
    one_shot ~jobs ?ted_cache ?index_cache (Protocol.Cluster { app; metric })
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Pairwise divergence matrix and dendrogram for every model of an app.")
    Term.(
      ret
        (const run $ app_arg $ metric_arg $ jobs_arg $ ted_cache_arg
        $ index_cache_arg))

let nearest_cmd =
  let run app model k metric budget epsilon jobs ted_cache index_cache
      metric_cache =
    one_shot ~jobs ?ted_cache ?index_cache ?metric_cache
      (Protocol.Nearest { app; model; metric; k; budget; epsilon })
  in
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K"
           ~doc:"Number of nearest ports to report (at least 1).")
  in
  Cmd.v
    (Cmd.info "nearest"
       ~doc:"The k ports nearest a model under a divergence metric, \
             answered by a best-first search of the VP-tree metric index \
             (Fig. 15 navigation). Without --budget/--epsilon the results \
             are exactly the brute-force ranking; with either, the search \
             under the given evaluation budget and/or relative slack \
             reports its hits plus an honest exactness ledger.")
    Term.(
      ret
        (const run $ app_arg
        $ model_arg [ "model" ] "Query model id."
        $ k_arg $ metric_arg $ budget_arg $ epsilon_arg $ jobs_arg
        $ ted_cache_arg $ index_cache_arg $ metric_cache_arg))

let phi_cmd =
  let run app =
    print_string
      (Report.cascade
         (Sv_perf.Cascade.cascade ~app:(perf_app_of app)
            ~models:Sv_perf.Pmodel.all_parallel ~platforms:Sv_perf.Platform.all));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "phi" ~doc:"Cascade plot of the performance-portability metric Phi.")
    Term.(ret (const run $ app_arg))

let chart_cmd =
  let run app =
    with_app app (fun cbs ->
        let ixs = Sv_core.Index_engine.index_many ~run:false cbs in
        match
          List.find_opt (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model = "serial") ixs
        with
        | None -> fail "app %s has no serial baseline for a navigation chart" app
        | Some serial ->
            let pts =
              Sv_core.Navigation.points ~app:(perf_app_of app) ~serial
                ~codebases:
                  (List.filter
                     (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model <> "serial")
                     ixs)
                ~platforms:Sv_perf.Platform.all
            in
            print_string (Sv_core.Navigation.render pts);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "chart" ~doc:"Navigation chart: Phi against TBMD divergence from serial.")
    Term.(ret (const run $ app_arg))

let verify_cmd =
  let run app index_cache =
    with_app app (fun cbs ->
        let engine = Engine.create (engine_config ?index_cache ()) in
        let all_ok = ref true in
        List.iter
          (fun (ix : Pipeline.indexed) ->
            let ok =
              match ix.Pipeline.ix_verification with
              | Some v -> v.Pipeline.v_ok
              | None -> false
            in
            if not ok then all_ok := false;
            Printf.printf "  %-14s %s\n" ix.Pipeline.ix_model
              (if ok then "PASSED" else "FAILED"))
          (Engine.with_installed engine (fun () ->
               Sv_core.Index_engine.index_many cbs));
        Engine.persist ~ledger:true engine;
        if !all_ok then `Ok () else fail "some ports failed verification")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run every port's built-in verification under the interpreter.")
    Term.(ret (const run $ app_arg $ index_cache_arg))

let gen_cmd =
  let run seed count mode base spec out list_variants diagnose =
    let spec =
      match spec with
      | Some s -> (
          match Gen.parse_spec s with
          | Some sp -> Ok sp
          | None ->
              Error
                (Printf.sprintf
                   "bad --spec %S (expected gen:<mode>:<base>:<seed>:<count>)" s))
      | None -> (
          if count <= 0 then Error "--count must be positive"
          else
            match Gen.mode_of_name mode with
            | Some m -> Ok { Gen.seed; count; mode = m; base }
            | None ->
                Error (Printf.sprintf "unknown --mode %S (grow, mutate or mixed)" mode))
    in
    match spec with
    | Error m -> fail "%s" m
    | Ok spec -> (
        match diagnose with
        | Some k -> (
            match Gen.diagnose spec k with
            | report ->
                print_string report;
                `Ok ()
            | exception Invalid_argument m -> fail "%s" m)
        | None -> (
            match Gen.generate spec with
            | exception Invalid_argument m -> fail "%s" m
            | variants ->
                let chain v =
                  if v.Gen.v_kind = `Grown then "-"
                  else if v.Gen.v_ops = [] then "(seed reprint)"
                  else
                    String.concat ";"
                      (List.map
                         (fun (op, detail) ->
                           if detail = "" then op
                           else Printf.sprintf "%s(%s)" op detail)
                         v.Gen.v_ops)
                in
                if list_variants then
                  List.iter
                    (fun v ->
                      Printf.printf "%-18s %-7s %-12s tries=%d %s\n" v.Gen.v_id
                        (match v.Gen.v_kind with
                        | `Grown -> "grown"
                        | `Mutated -> "mutated")
                        (Option.value ~default:"-" v.Gen.v_seed_model)
                        v.Gen.v_tries (chain v))
                    variants;
                (match out with
                | None -> ()
                | Some dir ->
                    let mkdir d =
                      try Unix.mkdir d 0o755
                      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
                    in
                    mkdir dir;
                    let manifest = Buffer.create 1024 in
                    Buffer.add_string manifest (Gen.spec_string spec ^ "\n");
                    List.iter
                      (fun v ->
                        let cb = v.Gen.v_cb in
                        let vdir = Filename.concat dir v.Gen.v_id in
                        mkdir vdir;
                        List.iter
                          (fun (name, content) ->
                            let oc = open_out (Filename.concat vdir name) in
                            output_string oc content;
                            close_out oc)
                          cb.Sv_corpus.Emit.files;
                        Buffer.add_string manifest
                          (Printf.sprintf "%s\t%s\t%s\n" v.Gen.v_id
                             cb.Sv_corpus.Emit.main_file (chain v)))
                      variants;
                    let oc = open_out (Filename.concat dir "MANIFEST") in
                    Buffer.output_buffer oc manifest;
                    close_out oc;
                    Printf.printf "wrote %d variants + MANIFEST to %s\n"
                      (List.length variants) dir);
                if not list_variants then begin
                  let grown, mutated =
                    List.partition (fun v -> v.Gen.v_kind = `Grown) variants
                  in
                  Printf.printf
                    "%s: %d variants (%d grown, %d mutated), all verified\n"
                    (Gen.spec_string spec) (List.length variants)
                    (List.length grown) (List.length mutated);
                  List.iter
                    (fun (op, n) -> Printf.printf "  %-18s %d\n" op n)
                    (Gen.op_counts variants)
                end;
                `Ok ()))
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed. The corpus is a pure function of the spec: same \
                 seed, byte-identical variants.")
  in
  let count =
    Arg.(value & opt int 100 & info [ "count"; "n" ] ~docv:"N"
           ~doc:"Number of variants to generate.")
  in
  let mode =
    Arg.(value & opt string "mixed" & info [ "mode" ] ~docv:"MODE"
           ~doc:"$(b,grow) fresh kernel chains, $(b,mutate) \
                 semantics-preserving rewrites of bundled ports, or \
                 $(b,mixed) (default) alternating both.")
  in
  let base =
    Arg.(value & opt string "babelstream" & info [ "base" ] ~docv:"BASE"
           ~doc:"Seed corpus for mutation (babelstream, babelstream-f, \
                 tealeaf, cloverleaf, minibude or all); model set for \
                 growth (a model id list or all).")
  in
  let spec =
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"SPEC"
           ~doc:"Full spec gen:<mode>:<base>:<seed>:<count>; overrides the \
                 individual flags. The same string is accepted as an app \
                 name by index, cluster, verify and the daemon.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR"
           ~doc:"Write each variant's sources under DIR/<id>/ plus a \
                 MANIFEST (spec line, then one id/main-file/operator-chain \
                 row per variant).")
  in
  let list_variants =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"Print one line per variant: id, kind, seed model, \
                   attempts, operator chain.")
  in
  let diagnose =
    Arg.(value & opt (some int) None & info [ "diagnose" ] ~docv:"K"
           ~doc:"Replay variant K and print the shrinking report: the \
                 shortest operator-chain prefix that breaks the semantic \
                 check, for every rejected attempt.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a seeded synthetic corpus of interpreter-verified \
             program variants.")
    Term.(
      ret
        (const run $ seed $ count $ mode $ base $ spec $ out $ list_variants
        $ diagnose))

(* --- service layer --- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket"; "s" ] ~env:(Cmd.Env.info "SV_SOCKET") ~docv:"PATH"
           ~doc:"Unix domain socket the daemon listens on (default: a \
                 per-user path under the temp directory).")

let resolve_socket = function
  | Some s -> s
  | None -> Sv_serve.Server.default_socket ()

let serve_cmd =
  let run socket jobs lru_mb high_water ted_cache index_cache metric_cache =
    let engine =
      Engine.create
        (engine_config ~jobs ?lru_mb ~high_water ?ted_cache ?index_cache
           ?metric_cache ())
    in
    let cfg = Engine.config engine in
    let socket = resolve_socket socket in
    match Sv_serve.Server.create ~socket engine with
    | exception Failure msg -> fail "%s" msg
    | server ->
        Printf.printf "sv serve: listening on %s (jobs %d, lru %d MiB, high-water %d)\n%!"
          socket cfg.Engine.jobs
          (cfg.Engine.lru_budget / (1024 * 1024))
          high_water;
        Sv_serve.Server.run server;
        Printf.printf "sv serve: shut down\n%!";
        `Ok ()
  in
  let lru_mb =
    Arg.(value & opt (some int) None
         & info [ "lru-mb" ] ~env:(Cmd.Env.info "SV_LRU_MB") ~docv:"MB"
             ~doc:"Resident-codebase LRU budget in MiB (default 64). Every \
                   resident is also held in the index cache, so eviction \
                   costs a decode, never a re-index.")
  in
  let high_water =
    Arg.(value & opt int 8
         & info [ "high-water" ] ~docv:"N"
             ~doc:"Request-queue admission mark: frames arriving while N \
                   requests are already queued are answered with a typed \
                   overloaded reply instead of being admitted.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident divergence daemon on a Unix domain socket.")
    Term.(
      ret
        (const run $ socket_arg $ jobs_arg $ lru_mb $ high_water $ ted_cache_arg
        $ index_cache_arg $ metric_cache_arg))

let client_cmd =
  let run verb socket app model base target metric k budget epsilon jobs
      ted_cache index_cache metric_cache =
    let need name = function
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "verb %S needs --%s" verb name)
    in
    let request =
      match verb with
      | "index" ->
          Result.bind (need "app" app) (fun app ->
              Result.map (fun model -> Protocol.Index { app; model })
                (need "model" model))
      | "compare" ->
          Result.bind (need "app" app) (fun app ->
              Result.bind (need "base" base) (fun base ->
                  Result.map
                    (fun target -> Protocol.Compare { app; base; target })
                    (need "target" target)))
      | "matrix" ->
          Result.map (fun app -> Protocol.Matrix { app; metric }) (need "app" app)
      | "cluster" ->
          Result.map (fun app -> Protocol.Cluster { app; metric }) (need "app" app)
      | "nearest" ->
          Result.bind (need "app" app) (fun app ->
              Result.map
                (fun model ->
                  Protocol.Nearest { app; model; metric; k; budget; epsilon })
                (need "model" model))
      | "status" -> Ok Protocol.Status
      | "shutdown" -> Ok Protocol.Shutdown
      | v ->
          Error
            (Printf.sprintf
               "unknown verb %S (expected index, compare, matrix, cluster, \
                nearest, status or shutdown)"
               v)
    in
    match request with
    | Error msg -> fail "%s" msg
    | Ok req -> (
        let config =
          engine_config ~jobs ?ted_cache ?index_cache ?metric_cache ()
        in
        match
          Sv_serve.Client.call_or_fallback ~socket:(resolve_socket socket)
            ~config req
        with
        | Error msg -> fail "%s" msg
        | Ok (resp, path) ->
            (match path with
            | `Local ->
                Printf.eprintf "sv client: no daemon; evaluated in-process\n%!"
            | `Daemon -> ());
            print_reply resp)
  in
  let verb =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VERB"
           ~doc:"index, compare, matrix, cluster, nearest, status or shutdown.")
  in
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K"
           ~doc:"Number of nearest ports (nearest verb).")
  in
  let opt_model names doc =
    Arg.(value & opt (some string) None & info names ~docv:"MODEL" ~doc)
  in
  let app_opt =
    Arg.(value & opt (some string) None & info [ "app"; "a" ] ~docv:"APP"
           ~doc:"Mini-app: babelstream, babelstream-f, tealeaf, cloverleaf, \
                 minibude.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to the divergence daemon (in-process fallback \
             when no daemon is listening).")
    Term.(
      ret
        (const run $ verb $ socket_arg $ app_opt
        $ opt_model [ "model" ] "Model id (index and nearest verbs)."
        $ opt_model [ "base"; "b" ] "Base model id (compare verb)."
        $ opt_model [ "target"; "t" ] "Target model id (compare verb)."
        $ metric_arg $ k_arg $ budget_arg $ epsilon_arg $ jobs_arg
        $ ted_cache_arg $ index_cache_arg $ metric_cache_arg))

let main_cmd =
  let doc = "SilverVale-ML: tree-based programming-model productivity analysis" in
  Cmd.group (Cmd.info "sv" ~version:"1.0.0" ~doc)
    [
      models_cmd; emit_cmd; index_cmd; inspect_cmd; compare_cmd; cluster_cmd;
      nearest_cmd; phi_cmd; chart_cmd; verify_cmd; gen_cmd; serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
