(* The in-process half of the benchmark; run.py drives it.

     probe check JOB OUT    fresh answers that run.py checks the measured
                            `sv` outputs against: reference Zhang–Shasha
                            distances, an LCS line distance, sizes,
                            interpreter verdicts and fresh daemon replies
     probe replay JOB OUT   one round of a workload replayed in-process,
                            with a span around every call into a layer
                            (or none, for the untraced baseline)

   JOB and OUT are JSON files. Nothing here is timed by the end-to-end
   metrics: checks run outside the timed phase, and the replay is the
   separate traced run. *)

module J = Sv_jsonx.Jsonx
module Tree = Sv_tree.Tree
module Label = Sv_tree.Label
module Loc = Sv_util.Loc
module Emit = Sv_corpus.Emit
module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Apps = Sv_core.Apps
module Navigation = Sv_core.Navigation
module Index_engine = Sv_core.Index_engine
module Gen = Sv_gen.Gen
module Div = Sv_metrics.Divergence
module Tel = Sv_perf.Telemetry
module Engine = Sv_serve.Engine
module Protocol = Sv_serve.Protocol
module Index_cache = Sv_db.Index_cache
module Ted_cache = Sv_db.Codebase_db.Ted_cache
module Cluster = Sv_cluster.Cluster
module Report = Sv_report.Report

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let field k v =
  match J.member k v with Some x -> x | None -> failwith ("job lacks " ^ k)

let str k v =
  match J.string_value (field k v) with Some s -> s | None -> failwith k

let ints v = List.map (fun x -> Option.get (J.int_value x)) (J.to_list v)
let list k v = match J.member k v with Some l -> J.to_list l | None -> []

let metric_of s =
  match Tbmd.metric_of_string s with
  | Some m -> m
  | None -> failwith ("unknown metric " ^ s)

let tree_tag = function
  | Tbmd.TSrc -> `TSrc
  | Tbmd.TSem -> `TSem
  | Tbmd.TSemI -> `TSemI
  | Tbmd.TIr -> `TIr
  | _ -> invalid_arg "not a tree metric"

let is_tree_metric m = List.mem m Tbmd.[ TSrc; TSem; TSemI; TIr ]

let unit_trees m (ix : Pipeline.indexed) =
  List.map
    (fun u -> Pipeline.unit_tree ~metric:(tree_tag m) ~coverage:false ix u)
    ix.Pipeline.ix_units

let corpus app =
  match Apps.corpus_of_app app with
  | Some cbs -> cbs
  | None -> failwith ("unknown app " ^ app)

let verified (ix : Pipeline.indexed) =
  match ix.Pipeline.ix_verification with
  | Some v -> v.Pipeline.v_ok
  | None -> false

(* --- independent references ------------------------------------------ *)

(* Positional unit matching as in Eq. (4)/(6): matched units add their
   distance, an unmatched unit adds its whole size. *)
let rec sum_matched dist size acc xs ys =
  match (xs, ys) with
  | x :: xs, y :: ys -> sum_matched dist size (acc + dist x y) xs ys
  | x :: xs, [] -> sum_matched dist size (acc + size x) xs []
  | [], y :: ys -> sum_matched dist size (acc + size y) [] ys
  | [], [] -> acc

(* Raw tree distance with the pointer-tree Zhang–Shasha reference
   instead of the flat kernel the program runs. *)
let zs_raw m a b =
  sum_matched (Sv_tree.Ted.distance ~eq:Label.equal) Tree.size 0
    (unit_trees m a) (unit_trees m b)

(* Insert/delete line distance from a textbook LCS table:
   |a| + |b| - 2 LCS(a, b). *)
let lcs_distance a b =
  let a = Array.of_list a and b = Array.of_list b in
  let n = Array.length a and m = Array.length b in
  let prev = Array.make (m + 1) 0 and cur = Array.make (m + 1) 0 in
  for i = 1 to n do
    for j = 1 to m do
      cur.(j) <-
        (if String.equal a.(i - 1) b.(j - 1) then prev.(j - 1) + 1
         else max prev.(j) cur.(j - 1))
    done;
    Array.blit cur 0 prev 0 (m + 1)
  done;
  n + m - (2 * prev.(m))

let source_ref (a : Pipeline.indexed) (b : Pipeline.indexed) =
  let lines = List.map (fun u -> u.Pipeline.u_lines) in
  sum_matched lcs_distance List.length 0 (lines a.Pipeline.ix_units)
    (lines b.Pipeline.ix_units)

(* What the program answers for one pair when nothing is memoised. *)
let fresh_raw m a b =
  Tbmd.clear_memo ();
  Tbmd.raw_divergence m a b

(* The key [Tbmd.raw_divergence] memoises on: app and model id plus
   summed sizes. Reported so run.py can tell a stale daemon reply caused
   by a key collision from any other mismatch. *)
let fingerprint (ix : Pipeline.indexed) =
  List.fold_left
    (fun acc u ->
      acc + u.Pipeline.u_sloc
      + (31 * Tree.size u.Pipeline.u_t_sem)
      + (17 * Tree.size u.Pipeline.u_t_src))
    (Hashtbl.hash (ix.Pipeline.ix_app, ix.Pipeline.ix_model))
    ix.Pipeline.ix_units

let check_corpus c =
  let app = str "app" c and m = metric_of (str "metric" c) in
  let ixs = Array.of_list (Index_engine.index_many ~jobs:1 (corpus app)) in
  let per f = J.List (Array.to_list (Array.map f ixs)) in
  let size ix = List.fold_left (fun acc t -> acc + Tree.size t) 0 (unit_trees m ix) in
  let pair p =
    match ints p with
    | [ i; j ] ->
        J.Obj
          [
            ("i", J.Int i);
            ("j", J.Int j);
            ("zs", J.Int (zs_raw m ixs.(i) ixs.(j)));
            ("flat", J.Int (fst (fresh_raw m ixs.(i) ixs.(j))));
            ("lcs", J.Int (source_ref ixs.(i) ixs.(j)));
            ("source", J.Int (fst (fresh_raw Tbmd.Source ixs.(i) ixs.(j))));
          ]
    | _ -> failwith "pair"
  in
  let triple t =
    match ints t with
    | [ a; b; c ] ->
        let d x y = J.Int (fst (fresh_raw m ixs.(x) ixs.(y))) in
        J.Obj [ ("abc", J.List [ J.Int a; J.Int b; J.Int c ]); ("d", J.List [ d a b; d b c; d a c ]) ]
    | _ -> failwith "triple"
  in
  J.Obj
    [
      ("app", J.String app);
      ("models", per (fun ix -> J.String ix.Pipeline.ix_model));
      ("labels", per (fun ix -> J.String ix.Pipeline.ix_model_name));
      ("verified", per (fun ix -> J.Bool (verified ix)));
      ("fingerprints", per (fun ix -> J.Int (fingerprint ix)));
      ("sizes", per (fun ix -> J.Int (size ix)));
      ("pairs", J.List (List.map pair (list "pairs" c)));
      ("triples", J.List (List.map triple (list "triples" c)));
    ]

let check_compare c =
  let app = str "app" c in
  let cbs = corpus app in
  let ix model =
    match Apps.find_codebase ~app cbs model with
    | Some cb -> Index_engine.index ~jobs:1 cb
    | None -> failwith ("unknown model " ^ model)
  in
  let b = ix (str "base" c) and t = ix (str "target" c) in
  J.Obj
    [
      ( "rows",
        J.Obj
          (List.map
             (fun m ->
               let d, dmax = fresh_raw m b t in
               (Tbmd.metric_label m, J.List [ J.Int d; J.Int dmax ]))
             Tbmd.all_metrics) );
      ("lcs", J.Int (source_ref b t));
      ("verified", J.List [ J.Bool (verified b); J.Bool (verified t) ]);
    ]

(* A fresh reply: a new engine, and no memoised divergence from any
   earlier request. *)
let check_requests reqs =
  let eng = Engine.create (Engine.default_config ()) in
  List.map
    (fun r ->
      Tbmd.clear_memo ();
      match Protocol.decode_response (Engine.handle_payload eng (J.to_string r)) with
      | Ok (_, Protocol.Output { output; _ }) -> J.String output
      | Ok (_, _) -> J.Null
      | Error e -> failwith e)
    reqs

let check job out =
  let job = J.of_string (read_file job) in
  write_file out
    (J.to_string
       (J.Obj
          [
            ("corpora", J.List (List.map check_corpus (list "corpora" job)));
            ("compares", J.List (List.map check_compare (list "compares" job)));
            ("requests", J.List (check_requests (list "requests" job)));
          ]))

(* --- spans ------------------------------------------------------------ *)

type span = { sid : int; name : string; parent : int; t0 : float; t1 : float }

let tracing = ref true
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let now = Unix.gettimeofday

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let sid = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := sid :: !stack;
    let t0 = now () in
    let finish () =
      spans := { sid; name; parent; t0; t1 = now () } :: !spans;
      stack := List.tl !stack
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed over the spans of that name. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.sid)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    spans;
  self

let chrome_trace spans =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.rev_map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("ph", J.String "X");
                   ("ts", J.Float ((s.t0 -. base) *. 1e6));
                   ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ("args", J.Obj [ ("id", J.Int s.sid); ("parent", J.Int s.parent) ]);
                 ])
             spans) );
    ]

(* --- staged front-end replay ------------------------------------------ *)

(* The stage functions [Pipeline.index] composes, called one by one so
   each front-end layer gets its own span. The trees must equal what the
   engine returned for the same codebase, or the replay timed different
   work. *)

let mask system tree =
  let keep (l : Label.t) =
    Loc.is_none l.Label.loc || not (List.mem l.Label.loc.Loc.file system)
  in
  match Tree.filter_prune keep tree with
  | Some t -> t
  | None -> Tree.leaf (Tree.label tree)

let inline_env (ast : Sv_lang_c.Ast.tunit) name =
  let underscored =
    String.concat "_"
      (List.filter (fun s -> s <> "") (String.split_on_char ':' name))
  in
  match Sv_lang_c.Ast.find_function ast name with
  | Some f -> Some f
  | None -> Sv_lang_c.Ast.find_function ast underscored

let stage_c_unit (cb : Emit.codebase) file =
  let resolve name = List.assoc_opt name cb.Emit.files in
  let src = List.assoc file cb.Emit.files in
  let system = cb.Emit.system_headers in
  let pp =
    span "frontend.preprocess" (fun () ->
        Sv_lang_c.Preproc.run ~resolve ~defines:cb.Emit.defines ~file src)
  in
  let tokens = pp.Sv_lang_c.Preproc.tokens in
  let unit_files =
    (file, src)
    :: List.filter_map
         (fun d ->
           if List.mem d system then None
           else Option.map (fun c -> (d, c)) (resolve d))
         pp.Sv_lang_c.Preproc.deps
  in
  let t_src, t_src_pp, ast =
    span "frontend.parse" (fun () ->
        ( Tree.flatten_forest
            (Label.v ~loc:(Loc.make ~file ~line:1 ~col:0) "unit")
            (List.map (fun (f, c) -> Sv_lang_c.Cst.t_src ~file:f c) unit_files),
          mask system (Sv_lang_c.Cst.t_src_of_tokens ~file tokens),
          Sv_lang_c.Parser.parse_tokens ~file tokens ))
  in
  let t_sem, t_sem_i =
    span "frontend.lower" (fun () ->
        let module S = Sv_lang_c.Sem_tree in
        ( mask system (S.of_tunit ast),
          mask system (S.of_tunit (S.inline_calls ~env:(inline_env ast) ~depth:3 ast)) ))
  in
  let t_ir =
    span "ir.lower" (fun () ->
        let ir = Sv_lang_c.Lower.lower ~file [ ast ] in
        (match Sv_ir.Ir.validate ir with Ok () -> () | Error e -> failwith e);
        mask system (Sv_ir.Ir.to_tree ir))
  in
  ([ t_src; t_src_pp; t_sem; t_sem_i; t_ir ], ast)

let stage_codebase (cb : Emit.codebase) =
  match cb.Emit.lang with
  | `C ->
      let units = List.map (stage_c_unit cb) (cb.Emit.main_file :: cb.Emit.extra_units) in
      let o = span "interp" (fun () -> Sv_interp.Interp_c.run (List.map snd units)) in
      count "interp.steps" (float_of_int o.Sv_interp.Interp_c.steps);
      List.map fst units
  | `F ->
      let file = cb.Emit.main_file in
      let src = List.assoc file cb.Emit.files in
      let ast, t_src =
        span "frontend.parse" (fun () ->
            (Sv_lang_f.Parser.parse ~file src, Sv_lang_f.Cst.t_src ~file src))
      in
      let t_sem = span "frontend.lower" (fun () -> Sv_lang_f.Sem_tree.of_file ast) in
      let t_ir =
        span "ir.lower" (fun () ->
            let ir = Sv_lang_f.Lower.lower ~file ast in
            (match Sv_ir.Ir.validate ir with Ok () -> () | Error e -> failwith e);
            Sv_ir.Ir.to_tree ir)
      in
      let o = span "interp" (fun () -> Sv_interp.Interp_f.run ast) in
      count "interp.steps" (float_of_int o.Sv_interp.Interp_f.steps);
      [ [ t_src; t_src; t_sem; t_sem; t_ir ] ]

let assert_same_trees staged (ix : Pipeline.indexed) =
  let engine =
    List.map
      (fun u ->
        Pipeline.[ u.u_t_src; u.u_t_src_pp; u.u_t_sem; u.u_t_sem_i; u.u_t_ir ])
      ix.Pipeline.ix_units
  in
  if staged <> engine then
    failwith ("staged front-end trees differ from the engine's for " ^ ix.Pipeline.ix_model);
  List.iter (List.iter (fun t -> count "tree.nodes" (float_of_int (Tree.size t)))) engine

(* --- layer replay ----------------------------------------------------- *)

let gen_cache : (string, Emit.codebase list) Hashtbl.t = Hashtbl.create 8

let resolve app =
  match Hashtbl.find_opt gen_cache app with
  | Some cbs -> cbs
  | None ->
      let cbs =
        match Gen.parse_spec app with
        | Some spec when String.length app > 4 && String.sub app 0 4 = "gen:" ->
            let vs = span "gen" (fun () -> Gen.generate spec) in
            List.iter (fun v -> count "gen.retries" (float_of_int (v.Gen.v_tries - 1))) vs;
            List.map (fun v -> v.Gen.v_cb) vs
        | _ -> corpus app
      in
      Hashtbl.replace gen_cache app cbs;
      cbs

let index cbs =
  List.map
    (fun cb ->
      let misses () =
        match Index_engine.cache () with Some c -> Index_cache.misses c | None -> 0
      in
      let before = misses () in
      let ix = span "index" (fun () -> Index_engine.index ~jobs:1 cb) in
      let missed = Index_engine.cache () = None || misses () > before in
      count (if missed then "index.cache_misses" else "index.cache_hits") 1.;
      if missed then assert_same_trees (stage_codebase cb) ix;
      ix)
    cbs

let ted m pairs =
  List.iter
    (fun ((a : Pipeline.indexed), b) ->
      if is_tree_metric m then begin
        span "tree.hashcons" (fun () ->
            List.iter Div.warm_flat (unit_trees m a @ unit_trees m b));
        count "ted.pairs" 1.;
        ignore (span "ted" (fun () -> Tbmd.raw_divergence m a b))
      end
      else ignore (span "diff" (fun () -> Tbmd.raw_divergence m a b)))
    pairs

let render s =
  let out = span "render" s in
  count "render.bytes" (float_of_int (String.length out))

(* "__k" in a job names the k-th model of the corpus, for corpora whose
   model ids are only known once generated. *)
let model_id cbs name =
  if String.length name > 2 && String.sub name 0 2 = "__" then
    (List.nth cbs (int_of_string (String.sub name 2 (String.length name - 2)))).Emit.model
  else name

let compare_op app base target =
  let cbs = resolve app in
  let base = model_id cbs base and target = model_id cbs target in
  let find model = Option.get (Apps.find_codebase ~app cbs model) in
  match index [ find base; find target ] with
  | [ b; t ] ->
      List.iter (fun m -> ted m [ (b, t) ]) Tbmd.all_metrics;
      render (fun () -> Engine.render_compare ~app ~base ~target b t)
  | _ -> assert false

let cluster_op ?(nearest = false) app metric =
  let m = metric_of metric in
  let ixs = index (resolve app) in
  let arr = Array.of_list ixs in
  let n = Array.length arr in
  ted m
    (List.concat
       (List.init n (fun i -> List.init (n - i - 1) (fun k -> (arr.(i), arr.(i + k + 1))))));
  let mat = span "matrix" (fun () -> Tbmd.matrix m ixs) in
  count "matrix.cells" (float_of_int (n * n));
  let dendro =
    span "cluster" (fun () -> Cluster.cluster Cluster.Complete (Cluster.row_euclidean mat))
  in
  let labels = mat.Cluster.labels in
  render (fun () ->
      Report.heatmap ~row_labels:(Array.to_list labels) ~col_labels:(Array.to_list labels)
        mat.Cluster.data
      ^ Report.dendrogram ~labels dendro);
  if nearest && n > 1 then begin
    let q = arr.(0) in
    let cands = Navigation.nearest_candidates ~query:q ixs in
    match span "vp" (fun () -> Navigation.nearest_index ~metric:m cands) with
    | None -> ()
    | Some vp ->
        count "vp.build_evals" (float_of_int (Tbmd.vp_build_evals vp));
        let _, ledger = span "vp" (fun () -> Navigation.nearest_in vp ~k:3 q) in
        count "vp.query_evals" (float_of_int ledger.Sv_metric.Vptree.evals)
  end

let file_bytes path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Run [f] with the persistent index and TED caches of [cache] (paths
   relative to [dir] unless absolute) loaded
   and installed, saving them back after — what the CLI does around a
   command given --index-cache/--ted-cache. *)
let with_caches ~dir cache f =
  match cache with
  | None -> f ()
  | Some c ->
      let path k =
        let p = str k c in
        if Filename.is_relative p then Filename.concat dir p else p
      in
      let ip = path "index" and tp = path "ted" in
      let ic, tc =
        span "store.load" (fun () -> (Index_cache.load_file ip, Ted_cache.load_file tp))
      in
      count "store.bytes" (float_of_int (file_bytes ip + file_bytes tp));
      count "store.entries" (float_of_int (Index_cache.size ic + Ted_cache.size tc));
      Index_engine.set_cache (Some ic);
      Tbmd.set_ted_cache (Some tc);
      Fun.protect
        ~finally:(fun () ->
          Index_engine.set_cache None;
          Tbmd.set_ted_cache None)
        (fun () ->
          f ();
          span "store.save" (fun () ->
              Index_cache.save_file ip ic;
              Ted_cache.save_file tp tc))

let handle_ms : (string, float list) Hashtbl.t = Hashtbl.create 8

let request_op eng req =
  let verb = str "verb" req in
  let req =
    match req with
    | J.Obj kvs ->
        J.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | ("model" | "base" | "target"), J.String name ->
                   (k, J.String (model_id (resolve (str "app" req)) name))
               | _ -> (k, v))
             kvs)
    | r -> r
  in
  let t0 = now () in
  let reply = span ("serve.handle." ^ verb) (fun () -> Engine.handle_payload eng (J.to_string req)) in
  let ms = (now () -. t0) *. 1e3 in
  Hashtbl.replace handle_ms verb
    (ms :: Option.value ~default:[] (Hashtbl.find_opt handle_ms verb));
  count "render.bytes" (float_of_int (String.length reply))

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let replay job out =
  let job = J.of_string (read_file job) in
  tracing := (match J.member "trace" job with Some (J.Bool b) -> b | _ -> true);
  let dir = str "workdir" job in
  let eng =
    lazy
      (span "store.load" (fun () ->
           Engine.create
             {
               (Engine.default_config ()) with
               Engine.index_cache_path = Some (Filename.concat dir "replay-index.cache");
               ted_cache_path = Some (Filename.concat dir "replay-ted.cache");
               metric_cache_path = Some (Filename.concat dir "replay-metric.cache");
             }))
  in
  let gc0 = Gc.quick_stat () and ted0 = Tel.ted_snapshot () in
  let t0 = now () in
  List.iteri
    (fun k op ->
      let cache = match J.member "cache" op with Some J.Null | None -> None | c -> c in
      span (Printf.sprintf "op%d.%s" k (str "op" op)) (fun () ->
          match str "op" op with
          | "compare" ->
              with_caches ~dir cache (fun () ->
                  compare_op (str "app" op) (str "base" op) (str "target" op))
          | "cluster" -> with_caches ~dir cache (fun () -> cluster_op (str "app" op) (str "metric" op))
          | "corpus" ->
              with_caches ~dir cache (fun () -> cluster_op ~nearest:true (str "app" op) (str "metric" op))
          | "request" -> request_op (Lazy.force eng) (field "req" op)
          | o -> failwith ("unknown op " ^ o)))
    (list "ops" job);
  if Lazy.is_val eng then span "op.persist" (fun () -> span "store.save" (fun () -> Engine.persist (Lazy.force eng)));
  let wall = now () -. t0 in
  let gc1 = Gc.quick_stat () and ted = Tel.ted_diff ~before:ted0 ~after:(Tel.ted_snapshot ()) in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  count "gc.allocated_mb" ((words gc1 -. words gc0) *. 8. /. 1048576.);
  count "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  let pruned = Tel.ted_pruned ted in
  count "ted.dp_runs" (float_of_int ted.Tel.dp_runs);
  count "ted.pruned" (float_of_int pruned);
  count "ted.prune_ratio"
    (if pruned + ted.Tel.dp_runs = 0 then 0.
     else float_of_int pruned /. float_of_int (pruned + ted.Tel.dp_runs));
  count "ted.strategy_left" (float_of_int ted.Tel.strategy_left);
  count "ted.strategy_right" (float_of_int ted.Tel.strategy_right);
  count "tree.flat_compiles" (float_of_int ted.Tel.flat_compiles);
  if Lazy.is_val eng then begin
    let st = Engine.status_fields (Lazy.force eng) in
    let geti k = match List.assoc_opt k st with Some (J.Int i) -> float_of_int i | _ -> 0. in
    count "serve.lru_hits" (geti "lru_hits");
    count "serve.lru_misses" (geti "lru_misses");
    count "serve.resident_mb" (geti "lru_bytes" /. 1048576.)
  end;
  Hashtbl.iter (fun verb l -> count ("serve.handle_p50_ms." ^ verb) (median l)) handle_ms;
  let self = self_times !spans in
  let roots = List.filter (fun s -> s.parent = 0) !spans in
  let op_s = List.fold_left (fun acc s -> acc +. (s.t1 -. s.t0)) 0. roots in
  let op_self = List.fold_left (fun acc s -> acc +. Option.value ~default:0. (Hashtbl.find_opt self s.name)) 0. roots in
  let layers =
    Hashtbl.fold (fun name s acc -> if String.length name > 2 && String.sub name 0 2 = "op" then acc else (name, J.Float s) :: acc) self []
  in
  (match J.member "trace_file" job with
  | Some (J.String path) when !tracing -> write_file path (J.to_string (chrome_trace !spans))
  | _ -> ());
  write_file out
    (J.to_string
       (J.Obj
          [
            ("wall_s", J.Float wall);
            ("op_s", J.Float op_s);
            ("span_share", J.Float (if op_s > 0. then 1. -. (op_self /. op_s) else 0.));
            ("self_s", J.Obj (List.sort compare layers));
            ( "counters",
              J.Obj (List.sort compare (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) counters [])) );
          ]))

let () =
  match Array.to_list Sys.argv with
  | [ _; "check"; job; out ] -> check job out
  | [ _; "replay"; job; out ] -> replay job out
  | _ ->
      prerr_endline "usage: probe (check|replay) JOB.json OUT.json";
      exit 2
