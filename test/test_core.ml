(* Tests for Sv_core: pipeline invariants and — most importantly — the
   paper's qualitative findings, which the reproduction must exhibit
   (DESIGN.md lists them). BabelStream is used where possible (smallest
   trees); TeaLeaf backs the migration findings. *)

module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Migration = Sv_core.Migration
module Tree = Sv_tree.Tree
module Label = Sv_tree.Label

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* index lazily and once; the Tbmd cache makes repeat comparisons cheap *)
let stream = lazy (List.map Pipeline.index (Sv_corpus.Babelstream.all ()))
let tea = lazy (List.map Pipeline.index (Sv_corpus.Tealeaf.all ()))
let stream_f = lazy (List.map Pipeline.index (Sv_corpus.Babelstream_f.all ()))

let find ixs id = List.find (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model = id) (Lazy.force ixs)

(* --- pipeline invariants --- *)

let test_index_populates_everything () =
  List.iter
    (fun (ix : Pipeline.indexed) ->
      checki (ix.ix_model ^ " one unit") 1 (List.length ix.ix_units);
      let u = List.hd ix.ix_units in
      checkb "t_src nonempty" true (Tree.size u.Pipeline.u_t_src > 50);
      checkb "t_sem nonempty" true (Tree.size u.Pipeline.u_t_sem > 50);
      checkb "t_ir nonempty" true (Tree.size u.Pipeline.u_t_ir > 50);
      checkb "sloc positive" true (u.Pipeline.u_sloc > 0);
      checkb "lloc positive" true (u.Pipeline.u_lloc > 0);
      checkb "lloc below sloc+pragmas bound" true (u.Pipeline.u_lloc < 4 * u.Pipeline.u_sloc);
      checkb "verification ran and passed" true
        (match ix.ix_verification with Some v -> v.Pipeline.v_ok | None -> false);
      checkb "coverage recorded" true (ix.ix_coverage <> None))
    (Lazy.force stream)

let test_system_headers_masked () =
  List.iter
    (fun (ix : Pipeline.indexed) ->
      let u = List.hd ix.ix_units in
      List.iter
        (fun tree ->
          checkb (ix.ix_model ^ " no system-header nodes") false
            (Tree.exists
               (fun (l : Label.t) ->
                 List.mem l.Label.loc.Sv_util.Loc.file
                   [ "stdio.h"; "stdlib.h"; "math.h" ])
               tree))
        [ u.Pipeline.u_t_src_pp; u.Pipeline.u_t_sem; u.Pipeline.u_t_ir ])
    (Lazy.force stream)

let test_deps_include_shims () =
  let sycl = find stream "sycl-usm" in
  let u = List.hd sycl.Pipeline.ix_units in
  checkb "sycl.h a dep" true (List.mem "sycl.h" u.Pipeline.u_deps);
  checkb "system headers are deps too" true (List.mem "stdio.h" u.Pipeline.u_deps)

let test_coverage_masking_shrinks () =
  (* shim helper functions never execute, so masked trees are smaller for
     library models *)
  let kokkos = find stream "kokkos" in
  let u = List.hd kokkos.Pipeline.ix_units in
  let base = Pipeline.unit_tree ~metric:`TSem ~coverage:false kokkos u in
  let masked = Pipeline.unit_tree ~metric:`TSem ~coverage:true kokkos u in
  checkb "masked smaller" true (Tree.size masked < Tree.size base)

let test_index_without_run () =
  let cb = List.nth (Sv_corpus.Babelstream.all ()) 0 in
  let ix = Pipeline.index ~run:false cb in
  checkb "no verification" true (ix.Pipeline.ix_verification = None);
  checkb "no coverage" true (ix.Pipeline.ix_coverage = None)

(* --- metric basics over indexed codebases --- *)

let all_metric_variants =
  [
    (Tbmd.SLOC, Tbmd.Base); (Tbmd.SLOC, Tbmd.PP); (Tbmd.LLOC, Tbmd.Base);
    (Tbmd.Source, Tbmd.Base); (Tbmd.Source, Tbmd.PP); (Tbmd.TSrc, Tbmd.Base);
    (Tbmd.TSrc, Tbmd.PP); (Tbmd.TSrc, Tbmd.Cov); (Tbmd.TSem, Tbmd.Base);
    (Tbmd.TSem, Tbmd.Cov); (Tbmd.TSemI, Tbmd.Base); (Tbmd.TIr, Tbmd.Base);
  ]

let test_self_divergence_zero () =
  let serial = find stream "serial" in
  List.iter
    (fun (m, v) ->
      checkf
        (Tbmd.metric_label m ^ Tbmd.variant_label v ^ " self = 0")
        0.0
        (Tbmd.divergence ~variant:v m serial serial))
    all_metric_variants

let test_divergence_in_unit_interval () =
  let serial = find stream "serial" in
  List.iter
    (fun (ix : Pipeline.indexed) ->
      List.iter
        (fun (m, v) ->
          let d = Tbmd.divergence ~variant:v m serial ix in
          checkb "in [0,1]" true (d >= 0.0 && d <= 1.0))
        all_metric_variants)
    (Lazy.force stream)

(* The memo serves a pair from its reversed entry, which is only sound if
   the raw distance is symmetric; so each direction here is computed from
   scratch, and the memo-served answer must equal the fresh one. *)
let test_raw_distance_symmetric () =
  let a = find stream "omp" and b = find stream "kokkos" in
  let longer =
    { b with Pipeline.ix_units = b.Pipeline.ix_units @ a.Pipeline.ix_units;
             ix_key = b.Pipeline.ix_key ^ "+tail" }
  in
  List.iter
    (fun (x, y, pair) ->
      List.iter
        (fun m ->
          let what = Tbmd.metric_label m ^ " " ^ pair in
          Tbmd.clear_memo ();
          let d1, _ = Tbmd.raw_divergence m x y in
          Tbmd.clear_memo ();
          let fresh = Tbmd.raw_divergence m y x in
          checki (what ^ " symmetric raw") d1 (fst fresh);
          Tbmd.clear_memo ();
          ignore (Tbmd.raw_divergence m x y);
          let memo = Tbmd.raw_divergence m y x in
          checki (what ^ " reversed memo d") (fst fresh) (fst memo);
          checki (what ^ " reversed memo dmax") (snd fresh) (snd memo))
        Tbmd.all_metrics)
    [ (a, b, "omp/kokkos"); (a, longer, "unequal unit counts") ]

let test_cross_language_rejected () =
  let c = find stream "serial" and f = find stream_f "sequential" in
  checkb "raises" true
    (match Tbmd.divergence Tbmd.TSem c f with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_absolute_metrics () =
  let serial = find stream "serial" in
  (match Tbmd.absolute Tbmd.SLOC serial with
  | Some v -> checkb "sloc total positive" true (v > 0)
  | None -> Alcotest.fail "SLOC is absolute");
  checkb "tree metric not absolute" true (Tbmd.absolute Tbmd.TSem serial = None)

let test_metric_parsing () =
  checkb "sloc" true (Tbmd.metric_of_string "SLOC" = Some Tbmd.SLOC);
  checkb "t_sem+i" true (Tbmd.metric_of_string "t_sem+i" = Some Tbmd.TSemI);
  checkb "unknown" true (Tbmd.metric_of_string "bogus" = None)

let test_matrix_shape () =
  let ixs = [ find stream "serial"; find stream "omp"; find stream "tbb" ] in
  let m = Tbmd.matrix Tbmd.TSem ixs in
  checki "3x3" 3 (Array.length m.Sv_cluster.Cluster.labels);
  checkf "diagonal zero" 0.0 m.Sv_cluster.Cluster.data.(1).(1);
  checkb "off-diagonal positive" true (m.Sv_cluster.Cluster.data.(0).(2) > 0.0)

(* the flat TED kernel is an implementation detail: every cell of every
   tree-metric matrix over the real corpus must be the normalised
   pointer-tree Zhang–Shasha answer over the same canonical views *)
let test_flat_matches_reference () =
  let ixs =
    [ find stream "serial"; find stream "omp"; find stream "cuda";
      find stream "kokkos" ]
  in
  let arr = Array.of_list ixs in
  let size_sum = List.fold_left (fun acc t -> acc + Tree.size t) 0 in
  let trees tag (c : Pipeline.indexed) =
    List.map
      (fun u -> Pipeline.unit_tree ~metric:tag ~coverage:false c u)
      c.Pipeline.ix_units
  in
  (* units pair positionally; an unmatched tail costs its full size *)
  let reference tag c1 c2 =
    let canon = Sv_metrics.Divergence.canon in
    let rec go = function
      | t1 :: r1, t2 :: r2 ->
          Sv_tree.Ted.distance ~eq:Int.equal (canon t1) (canon t2) + go (r1, r2)
      | rest, [] | [], rest -> size_sum rest
    in
    go (trees tag c1, trees tag c2)
  in
  List.iter
    (fun (m, tag) ->
      Tbmd.clear_memo ();
      let mat = Tbmd.matrix m ixs in
      let dmax = Array.map (fun c -> size_sum (trees tag c)) arr in
      (* raw distances are symmetric: one reference run per unordered pair *)
      let raw =
        Array.mapi
          (fun i ci ->
            Array.mapi
              (fun j cj -> if i < j then reference tag ci cj else 0)
              arr)
          arr
      in
      Array.iteri
        (fun i _ ->
          Array.iteri
            (fun j _ ->
              let want =
                if i = j then 0.0
                else
                  Sv_metrics.Divergence.normalised
                    ~d:raw.(min i j).(max i j) ~dmax:dmax.(j)
              in
              let got = mat.Sv_cluster.Cluster.data.(i).(j) in
              if got <> want then
                Alcotest.failf "%s cell (%d,%d): flat %.17g, reference %.17g"
                  (Tbmd.metric_label m) i j got want)
            arr)
        arr)
    [ (Tbmd.TSrc, `TSrc); (Tbmd.TSem, `TSem); (Tbmd.TSemI, `TSemI);
      (Tbmd.TIr, `TIr) ]

(* --- the paper's findings --- *)

let d ?variant m a b = Tbmd.divergence ?variant m a b

(* finding 2: OpenMP's semantic divergence exceeds its perceived one *)
let test_finding_omp_hidden_semantics () =
  let serial = find stream "serial" and omp = find stream "omp" in
  let t_sem = d Tbmd.TSem serial omp and t_src = d Tbmd.TSrc serial omp in
  checkb
    (Printf.sprintf "T_sem (%.3f) > T_src (%.3f) for OpenMP" t_sem t_src)
    true (t_sem > t_src)

(* finding: CUDA and HIP are nearly identical at T_sem *)
let test_finding_cuda_hip_twins () =
  let cuda = find stream "cuda" and hip = find stream "hip" in
  let between = d Tbmd.TSem cuda hip in
  let to_serial = d Tbmd.TSem (find stream "serial") cuda in
  checkb
    (Printf.sprintf "d(cuda,hip)=%.3f well below d(serial,cuda)=%.3f" between to_serial)
    true
    (between < 0.25 *. to_serial)

(* finding: the SYCL variants sit together *)
let test_finding_sycl_variants_cluster () =
  let usm = find stream "sycl-usm" and acc = find stream "sycl-acc" in
  let between = d Tbmd.TSem usm acc in
  let usm_to_serial = d Tbmd.TSem (find stream "serial") usm in
  checkb "variants closer than serial" true (between < usm_to_serial)

(* finding: serial sits near OpenMP (minimal-change design philosophy) *)
let test_finding_serial_near_omp () =
  let serial = find stream "serial" in
  let d_omp = d Tbmd.TSem serial (find stream "omp") in
  List.iter
    (fun other ->
      checkb
        (Printf.sprintf "omp (%.3f) closer to serial than %s" d_omp other)
        true
        (d_omp < d Tbmd.TSem serial (find stream other)))
    [ "cuda"; "hip"; "sycl-usm"; "sycl-acc"; "kokkos"; "tbb"; "stdpar" ]

(* finding 3: T_sem+i jumps for library models, not for compiler models *)
let test_finding_inlining_jump () =
  let serial = find stream "serial" in
  let jump id =
    let ix = find stream id in
    d Tbmd.TSemI serial ix -. d Tbmd.TSem serial ix
  in
  List.iter
    (fun lib ->
      checkb
        (Printf.sprintf "%s inlining jump (%.3f) exceeds omp (%.3f)" lib (jump lib)
           (jump "omp"))
        true
        (jump lib > jump "omp" +. 0.01))
    [ "kokkos"; "stdpar" ];
  checkb "cuda barely moves" true (Float.abs (jump "cuda") < 0.05);
  checkb "omp barely moves" true (Float.abs (jump "omp") < 0.05)

(* finding 4: offload models carry extra T_ir driver structure *)
let test_finding_ir_driver_inflation () =
  let serial = find stream "serial" in
  let dir id = d Tbmd.TIr serial (find stream id) in
  checkb "cuda T_ir above host omp" true (dir "cuda" > dir "omp");
  checkb "omp-target T_ir above host omp" true (dir "omp-target" > dir "omp")

(* finding 5: migration from CUDA costs more than from serial *)
let test_finding_migration_asymmetry () =
  let serial = find tea "serial" and cuda = find tea "cuda" in
  let targets = [ "omp-target"; "sycl-usm"; "sycl-acc"; "kokkos" ] in
  let worse =
    List.filter
      (fun id ->
        let t = find tea id in
        d Tbmd.TSem cuda t > d Tbmd.TSem serial t)
      targets
  in
  checkb
    (Printf.sprintf "CUDA-origin port costs more for %d/%d offload targets"
       (List.length worse) (List.length targets))
    true
    (List.length worse >= 3)

(* finding 5b: OpenMP target is the cheapest offload port from serial *)
let test_finding_omp_target_cheapest () =
  let serial = find tea "serial" in
  let targets =
    List.map (fun id -> find tea id)
      [ "omp-target"; "cuda"; "hip"; "sycl-usm"; "sycl-acc"; "kokkos" ]
  in
  let rows =
    Migration.divergence_from ~base:serial ~targets
      ~metrics:[ (Tbmd.TSem, Tbmd.Base) ]
  in
  match Migration.cheapest ~metric:Tbmd.TSem rows with
  | Some (name, _) -> Alcotest.(check string) "cheapest" "OpenMP target" name
  | None -> Alcotest.fail "no cheapest target"

(* finding 6: Fortran OpenACC introduces no parallel IR structure *)
let test_finding_fortran_acc () =
  let seq = find stream_f "sequential" in
  let d_acc = d Tbmd.TIr seq (find stream_f "acc") in
  let d_omp = d Tbmd.TIr seq (find stream_f "omp") in
  checkb
    (Printf.sprintf "acc T_ir (%.3f) below omp T_ir (%.3f)" d_acc d_omp)
    true (d_acc < d_omp)

let test_finding_fortran_array_similarity () =
  (* whole-array and acc-array models pair up, like sequential and acc *)
  let arr = find stream_f "array" and acc_arr = find stream_f "acc-array" in
  let between = d Tbmd.TSem arr acc_arr in
  let arr_to_omp = d Tbmd.TSem arr (find stream_f "omp") in
  checkb "array forms cluster" true (between < arr_to_omp)

(* stepping-stone conjecture of §V-D is measurable *)
let test_stepping_stone_api () =
  let serial = find tea "serial" in
  let via = find tea "omp-target" and target = find tea "sycl-usm" in
  let g = Migration.stepping_stone_gain ~base:serial ~via ~target ~metric:Tbmd.TSem in
  checkb "finite gain value" true (Float.is_finite g)

(* --- the indexing engine --- *)

module Index_engine = Sv_core.Index_engine
module Index_cache = Sv_db.Index_cache

(* Everything observable about an indexed codebase: the portable artifact
   bytes (trees, counts, lines, coverage-masked variants) plus the
   verdict and the coverage dump, which the artifact does not carry. *)
let ix_fingerprint (ix : Pipeline.indexed) =
  ( Sv_db.Codebase_db.save (Pipeline.to_db ix),
    ix.Pipeline.ix_verification,
    Option.map Sv_util.Coverage.dump ix.Pipeline.ix_coverage )

let engine_corpus () =
  (* mixed-language batch: MiniC codebases exercise both parallel grains,
     the MiniF one the serial fallback of the unit-grain path *)
  let c = Sv_corpus.Babelstream.all () in
  [ List.nth c 0; List.nth c 1; List.nth c 2;
    List.hd (Sv_corpus.Babelstream_f.all ()) ]

let with_cache cache f =
  Index_engine.set_cache cache;
  Fun.protect ~finally:(fun () -> Index_engine.set_cache None) f

let check_identical name reference ixs =
  List.iter2
    (fun (a : Pipeline.indexed) (b : Pipeline.indexed) ->
      checkb
        (Printf.sprintf "%s: %s byte-identical" name b.Pipeline.ix_model)
        true
        (ix_fingerprint a = ix_fingerprint b))
    reference ixs

let test_engine_parallel_model_grain () =
  let cbs = engine_corpus () in
  let reference = List.map Pipeline.index cbs in
  (* chunk:1 with jobs:2 over 4 misses takes the whole-codebase branch *)
  check_identical "model grain" reference
    (Index_engine.index_many ~jobs:2 ~chunk:1 cbs)

let test_engine_parallel_unit_grain () =
  let cbs = engine_corpus () in
  let reference = List.map Pipeline.index cbs in
  (* more workers than misses takes the per-unit branch *)
  check_identical "unit grain" reference
    (Index_engine.index_many ~jobs:8 cbs)

let test_engine_warm_cache () =
  let cbs = engine_corpus () in
  let reference = List.map Pipeline.index cbs in
  let cache = Index_cache.create () in
  with_cache (Some cache) (fun () ->
      check_identical "cold" reference (Index_engine.index_many ~jobs:1 cbs);
      checki "all misses recorded, trees and run" (2 * List.length cbs)
        (Index_cache.size cache);
      let hits_before = Index_cache.hits cache in
      check_identical "warm" reference (Index_engine.index_many ~jobs:1 cbs);
      checki "all hits, trees and run" (hits_before + (2 * List.length cbs))
        (Index_cache.hits cache));
  (* the persisted cache serves an identical warm run in a fresh table *)
  let reloaded =
    match Index_cache.load (Index_cache.save cache) with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  with_cache (Some reloaded) (fun () ->
      check_identical "warm from disk" reference
        (Index_engine.index_many ~jobs:1 cbs);
      checki "no recompute" (2 * List.length cbs) (Index_cache.hits reloaded))

(* The two records: a trees-only indexing stores trees alone; a later
   run reuses them, interprets each codebase once and stores its run
   record; a third indexing is all hits and equals a fresh index. *)
let test_engine_run_on_demand () =
  let cbs = engine_corpus () in
  let n = List.length cbs in
  let cache = Index_cache.create () in
  with_cache (Some cache) (fun () ->
      let trees_only = Index_engine.index_many ~run:false ~jobs:1 cbs in
      checkb "no run without asking" true
        (List.for_all
           (fun (ix : Pipeline.indexed) ->
             ix.Pipeline.ix_coverage = None && ix.Pipeline.ix_verification = None)
           trees_only);
      checki "trees records only" n (Index_cache.size cache);
      let hits = Index_cache.hits cache and misses = Index_cache.misses cache in
      ignore (Index_engine.index_many ~jobs:1 cbs);
      checki "every trees record hits" (hits + n) (Index_cache.hits cache);
      checki "every run record misses once" (misses + n) (Index_cache.misses cache);
      checki "run records stored" (2 * n) (Index_cache.size cache);
      let hits = Index_cache.hits cache and misses = Index_cache.misses cache in
      let third = Index_engine.index_many ~jobs:1 cbs in
      checki "both records hit" (hits + (2 * n)) (Index_cache.hits cache);
      checki "nothing interpreted" misses (Index_cache.misses cache);
      List.iter2
        (fun cb (ix : Pipeline.indexed) ->
          let fresh = Pipeline.index cb in
          checkb (ix.Pipeline.ix_model ^ " verdict equals a fresh index") true
            (ix.Pipeline.ix_verification = fresh.Pipeline.ix_verification);
          checkb (ix.Pipeline.ix_model ^ " coverage equals a fresh index") true
            (Option.map Sv_util.Coverage.dump ix.Pipeline.ix_coverage
            = Option.map Sv_util.Coverage.dump fresh.Pipeline.ix_coverage))
        cbs third)

(* A run-less index has no coverage: a +cov tree of it is an error, not
   the unmasked tree, so the divergence memo never stores a +cov cell
   computed without coverage. *)
let test_coverage_needs_run () =
  let cbs = Sv_corpus.Babelstream.all () in
  let a = Pipeline.index ~run:false (List.nth cbs 0)
  and b = Pipeline.index ~run:false (List.nth cbs 7) in
  let u = List.hd a.Pipeline.ix_units in
  checkb "unit_tree +cov raises" true
    (match Pipeline.unit_tree ~metric:`TSem ~coverage:true a u with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Tbmd.clear_memo ();
  checkb "raw +cov divergence raises" true
    (match Tbmd.raw_divergence ~variant:Tbmd.Cov Tbmd.TSem a b with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let a' = Pipeline.index (List.nth cbs 0) and b' = Pipeline.index (List.nth cbs 7) in
  checkb "same content keys" true
    (a'.Pipeline.ix_key = a.Pipeline.ix_key && b'.Pipeline.ix_key = b.Pipeline.ix_key);
  let memoised = Tbmd.raw_divergence ~variant:Tbmd.Cov Tbmd.TSem a' b' in
  Tbmd.clear_memo ();
  checkb "+cov cell is the masked distance" true
    (memoised = Tbmd.raw_divergence ~variant:Tbmd.Cov Tbmd.TSem a' b');
  checkb "masking changes this cell" true
    (memoised <> Tbmd.raw_divergence Tbmd.TSem a' b')

let sv_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/sv.exe"

(* `sv compare` reads trees only, so its index cache holds no run record. *)
let test_cli_trees_only () =
  let path = Filename.temp_file "sv_index" ".cache" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args =
    [ "compare"; "-a"; "babelstream"; "-b"; "serial"; "-t"; "kokkos"; "-j"; "1";
      "--index-cache"; path ]
  in
  let pid =
    Unix.create_process sv_exe (Array.of_list (sv_exe :: args)) Unix.stdin devnull
      devnull
  in
  Unix.close devnull;
  checkb "sv compare exits 0" true (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
  let cache = Index_cache.load_file path in
  checki "two trees records" 2 (Index_cache.size cache);
  List.iter
    (fun model ->
      let cb = Option.get (Sv_core.Apps.find_codebase ~app:"babelstream"
                             (Sv_corpus.Babelstream.all ()) model) in
      let key = Pipeline.codebase_key cb in
      checkb (model ^ " trees record") true (Index_cache.find cache key <> None);
      checkb (model ^ " no run record") true
        (Index_cache.find cache (Index_engine.run_key key) = None))
    [ "serial"; "kokkos" ]

let test_engine_key_invalidation () =
  let cb = List.hd (Sv_corpus.Babelstream.all ()) in
  let k = Pipeline.codebase_key cb in
  let change name cb' =
    checkb (name ^ " changes the key") true (Pipeline.codebase_key cb' <> k)
  in
  change "editing a source file"
    { cb with
      Sv_corpus.Emit.files =
        (match cb.Sv_corpus.Emit.files with
        | (f, src) :: rest -> (f, src ^ "\n") :: rest
        | [] -> assert false) };
  change "adding a define"
    { cb with Sv_corpus.Emit.defines = ("EXTRA", "1") :: cb.Sv_corpus.Emit.defines };
  change "switching dialect" { cb with Sv_corpus.Emit.lang = `F };
  checkb "the run record has its own key" true (Index_engine.run_key k <> k);
  checkb "with or without a run, one content key" true
    ((Pipeline.index ~run:false cb).Pipeline.ix_key = k
    && (Pipeline.index cb).Pipeline.ix_key = k);
  checkb "same codebase, same key" true (Pipeline.codebase_key cb = k)

let test_engine_corrupt_payload_recomputes () =
  (* an undecodable payload under the right key is treated as a miss and
     silently recomputed, never an error *)
  let cb = List.hd (Sv_corpus.Babelstream.all ()) in
  let reference = Pipeline.index cb in
  let cache = Index_cache.create () in
  let key = Pipeline.codebase_key cb in
  Index_cache.add cache key "garbage";
  Index_cache.add cache (Index_engine.run_key key) "garbage";
  with_cache (Some cache) (fun () ->
      checkb "recomputed identically" true
        (ix_fingerprint (Index_engine.index ~jobs:1 cb) = ix_fingerprint reference))

(* --- the divergence memo --- *)

(* Seeds 144 and 149 of gen:mutate:babelstream:S:4 both generate a
   variant named m0000-hip, and their mutations keep every count and tree
   size: a memo keyed on app, model id and sizes answered the second pair
   with the first one's distance. Against the bundled hip port the true
   T_sem distances are 0 and 6. *)
let test_memo_keys_on_content () =
  let base = find stream "hip" in
  let variant seed =
    let app = Printf.sprintf "gen:mutate:babelstream:%d:4" seed in
    let cbs = Option.get (Sv_core.Apps.corpus_of_app app) in
    Pipeline.index (Option.get (Sv_core.Apps.find_codebase ~app cbs "m0000-hip"))
  in
  let v144 = variant 144 and v149 = variant 149 in
  let fresh v =
    Tbmd.clear_memo ();
    fst (Tbmd.raw_divergence Tbmd.TSem base v)
  in
  checki "seed 144 distance" 0 (fresh v144);
  checki "seed 149 distance" 6 (fresh v149);
  Tbmd.clear_memo ();
  ignore (Tbmd.raw_divergence Tbmd.TSem base v144);
  checki "a warm memo answers the other variant with its own distance" 6
    (fst (Tbmd.raw_divergence Tbmd.TSem base v149));
  checkb "re-indexing the same sources reuses the content key" true
    ((variant 149).Pipeline.ix_key = v149.Pipeline.ix_key)

(* --- the engine over a generated corpus --- *)

(* Seeded mutants and grown variants of BabelStream through the whole
   engine, at a size that runs in seconds: indexing serial and pooled,
   and the T_sem matrix serial, pooled over a cold TED cache and warm
   from it, are all byte-identical. The raw integer divergence the
   VP-tree relies on obeys the triangle inequality on every triple, and
   the VP-tree answers every member's k-NN exactly as a brute-force sort
   whether built cold or reloaded from a persisted metric cache (with
   zero build evaluations). *)
let gen_cbs =
  lazy (Option.get (Sv_core.Apps.corpus_of_app "gen:mixed:babelstream:8:8"))
let gen_ixs = lazy (Sv_core.Index_engine.index_many ~jobs:1 (Lazy.force gen_cbs))

let test_generated_index_identical () =
  let cbs = Lazy.force gen_cbs in
  (* small generated codebases sit below the IPC floor: the pool is not
     worth its frames, so the planner keeps them in-process *)
  checkb "sub-floor corpus indexes serially" true
    (Sv_core.Index_engine.plan_grain ~jobs:2 cbs = `Serial);
  let bytes ixs =
    List.map (fun ix -> Sv_db.Codebase_db.save (Pipeline.to_db ix)) ixs
  in
  let serial = bytes (Lazy.force gen_ixs) in
  checkb "pooled index byte-identical" true
    (bytes (Sv_core.Index_engine.index_many ~jobs:2 ~chunk:1 cbs) = serial)

let test_generated_matrix_identical () =
  let ixs = Lazy.force gen_ixs in
  let matrix ~jobs ~cache =
    Tbmd.clear_memo ();
    Tbmd.set_jobs jobs;
    Tbmd.set_ted_cache cache;
    Fun.protect
      ~finally:(fun () ->
        Tbmd.set_jobs 1;
        Tbmd.set_ted_cache None)
      (fun () -> (Tbmd.matrix Tbmd.TSem ixs).Sv_cluster.Cluster.data)
  in
  let serial = matrix ~jobs:1 ~cache:None in
  let cache = Sv_db.Codebase_db.Ted_cache.create () in
  checkb "pooled matrix over a cold cache identical" true
    (matrix ~jobs:2 ~cache:(Some cache) = serial);
  checkb "warm-cache matrix identical" true
    (matrix ~jobs:1 ~cache:(Some cache) = serial);
  (* every entry sits under the trees' fresh digests: the per-tree digest
     memo hands out the keys [Ted_cache.digest] would *)
  let module Tc = Sv_db.Codebase_db.Ted_cache in
  List.iteri
    (fun i (a : Pipeline.indexed) ->
      List.iteri
        (fun j (b : Pipeline.indexed) ->
          if i <> j then
            List.iter2
              (fun (u : Pipeline.unit_info) (v : Pipeline.unit_info) ->
                let t1 = u.Pipeline.u_t_sem and t2 = v.Pipeline.u_t_sem in
                if Tc.find cache (Tc.digest t1) (Tc.digest t2)
                   <> Some (Sv_metrics.Divergence.tree_distance t1 t2)
                then Alcotest.failf "pair %d,%d: no cache entry under its digests" i j)
              a.Pipeline.ix_units b.Pipeline.ix_units)
        ixs)
    ixs

(* grown kernel chains: small trees, so many exact queries stay cheap *)
let grown_cbs () =
  Option.get (Sv_core.Apps.corpus_of_app "gen:grow:serial,omp,stdpar,tbb,kokkos:8:8")

let grown_ixs = lazy (Sv_core.Index_engine.index_many ~jobs:1 (grown_cbs ()))

let test_generated_metric_index () =
  let ixs = Lazy.force grown_ixs in
  let arr = Array.of_list ixs in
  let n = Array.length arr in
  let raw i j = fst (Tbmd.raw_divergence Tbmd.TSem arr.(i) arr.(j)) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for l = 0 to n - 1 do
        if raw i l > raw i j + raw j l then
          Alcotest.failf "triangle inequality broken: d(%d,%d) > d(%d,%d) + d(%d,%d)"
            i l i j j l
      done
    done
  done;
  let k = 3 in
  let index_of c =
    let rec go i = if arr.(i) == c then i else go (i + 1) in
    go 0
  in
  let answer hits = List.map (fun (c, d, _) -> (d, index_of c)) hits in
  let brute =
    Array.init n (fun q ->
        List.filteri
          (fun r _ -> r < k)
          (List.sort compare (List.init n (fun i -> (raw i q, i)))))
  in
  let check name vp =
    Array.iteri
      (fun q c ->
        let hits, ledger = Tbmd.vp_nearest vp ~k c in
        if answer hits <> brute.(q) then
          Alcotest.failf "%s: k-NN of %d differs from brute force" name q;
        checkb "exact query says so" true ledger.Sv_metric.Vptree.guaranteed_exact)
      arr
  in
  (* the metric-cache key digests the candidates' content keys: equal
     across two indexings of the same sources, different when one byte
     of one candidate's source changes *)
  let cbs = grown_cbs () in
  let key = Tbmd.vp_key Tbmd.TSem ixs in
  checkb "key equal across indexings" true
    (Tbmd.vp_key Tbmd.TSem (Sv_core.Index_engine.index_many ~jobs:1 cbs) = key);
  let edited =
    List.mapi
      (fun i (cb : Sv_corpus.Emit.codebase) ->
        if i <> n - 1 then cb
        else
          match cb.Sv_corpus.Emit.files with
          | (f, src) :: rest ->
              let at = String.index src ' ' in
              let src = String.mapi (fun j ch -> if j = at then '\t' else ch) src in
              { cb with Sv_corpus.Emit.files = (f, src) :: rest }
          | [] -> assert false)
      cbs
  in
  checkb "one source byte changes the key" false
    (Tbmd.vp_key Tbmd.TSem (Sv_core.Index_engine.index_many ~jobs:1 edited) = key);
  let path = Filename.temp_file "sv_metric_cache" ".svz" in
  Fun.protect
    ~finally:(fun () ->
      Tbmd.set_metric_cache None;
      Sys.remove path)
  @@ fun () ->
  let module Mc = Sv_db.Metric_cache in
  let cold_cache = Mc.create () in
  Tbmd.set_metric_cache (Some cold_cache);
  let cold = Tbmd.vp_index Tbmd.TSem ixs in
  check "cold build" cold;
  Mc.save_file path cold_cache;
  Tbmd.set_metric_cache (Some (Mc.load_file path));
  let warm = Tbmd.vp_index Tbmd.TSem ixs in
  checki "warm reload runs no build evaluation" 0 (Tbmd.vp_build_evals warm);
  check "warm reload" warm;
  (* a schema-1 image (nodes carried a [built] word after their count)
     holding this very corpus under its current key rebuilds cold *)
  let vt = Sv_metric.Vptree.build ~dist:raw (Array.init n Fun.id) in
  let r = Sv_metric.Vptree.to_repr vt in
  let old = ref [ r.(0) ] and pos = ref 1 in
  let copy k =
    for i = 0 to k - 1 do
      old := r.(!pos + i) :: !old
    done;
    pos := !pos + k
  in
  let rec node () =
    if r.(!pos) = 0 then copy (2 + r.(!pos + 1))
    else begin
      let count = r.(!pos + 3) in
      copy 4;
      old := count :: !old;
      node ();
      node ()
    end
  in
  node ();
  let payload =
    Sv_msgpack.Msgpack.(encode (Arr (List.rev_map (fun i -> Int i) !old)))
  in
  let v1 = Sv_db.Store.create ~kind:'M' ~schema:1 in
  ignore (Sv_db.Store.add v1 (Tbmd.vp_key Tbmd.TSem ixs) payload);
  Sys.remove path;
  Sv_db.Store.save_file path v1;
  let stale = Mc.load_file path in
  Tbmd.set_metric_cache (Some stale);
  let rebuilt = Tbmd.vp_index Tbmd.TSem ixs in
  checki "schema-1 image misses" 1 (Mc.misses stale);
  checkb "schema-1 image rebuilds cold" true (Tbmd.vp_build_evals rebuilt > 0);
  check "schema-1 image" rebuilt;
  Tbmd.set_metric_cache None;
  (* a budgeted or approximate answer that claims exactness must be it *)
  Array.iteri
    (fun q c ->
      List.iter
        (fun (budget, epsilon) ->
          let hits, ledger = Tbmd.vp_nearest cold ~k ?budget ?epsilon c in
          if ledger.Sv_metric.Vptree.guaranteed_exact && answer hits <> brute.(q)
          then Alcotest.failf "query %d: ledger claims exact but hits differ" q)
        [ (Some 1, None); (Some (n / 2), None); (None, Some 0.25) ])
    arr

(* Every VP-tree evaluation is the memoised exact divergence, so
   nearest queries over a corpus whose matrix is already computed —
   index builds and queries in either pair order — run no DP, and still
   answer exactly as a brute-force sort. *)
let test_nearest_after_matrix () =
  let module T = Sv_perf.Telemetry in
  let module Nav = Sv_core.Navigation in
  let ixs = Lazy.force grown_ixs in
  Tbmd.clear_memo ();
  checkb "no TED cache installed" true (Tbmd.ted_cache () = None);
  ignore (Tbmd.matrix Tbmd.TSem ixs);
  let dp_before = T.ted.T.dp_runs in
  let k = 3 in
  let answers =
    List.map
      (fun q ->
        let cands = Nav.nearest_candidates ~query:q ixs in
        match Nav.nearest_index cands with
        | None -> (q, cands, [])
        | Some vp -> (q, cands, fst (Nav.nearest_in vp ~k q)))
      ixs
  in
  checki "nearest after matrix runs no DP" dp_before T.ted.T.dp_runs;
  List.iter
    (fun (q, cands, hits) ->
      let brute =
        List.mapi
          (fun i (c : Pipeline.indexed) ->
            (fst (Tbmd.raw_divergence Tbmd.TSem q c), i, c.Pipeline.ix_model))
          cands
        |> List.sort compare
        |> List.filteri (fun r _ -> r < k)
        |> List.map (fun (d, _, m) -> (d, m))
      in
      let got = List.map (fun (h : Nav.nearest_hit) -> (h.Nav.nh_d, h.Nav.nh_model)) hits in
      if got <> brute then
        Alcotest.failf "k-NN of %s differs from brute force" q.Pipeline.ix_model)
    answers

(* --- dendrogram integration --- *)

let test_dendrogram_runs () =
  let ixs = [ find stream "serial"; find stream "omp"; find stream "cuda"; find stream "hip" ] in
  let m, dendro = Tbmd.dendrogram Tbmd.TSem ixs in
  checki "labels" 4 (Array.length m.Sv_cluster.Cluster.labels);
  (* CUDA and HIP must merge before either joins anything else *)
  let rec find_pair = function
    | Sv_cluster.Cluster.Leaf _ -> None
    | Sv_cluster.Cluster.Merge (a, b, _) -> (
        match
          ( List.sort compare (Sv_cluster.Cluster.leaves a),
            List.sort compare (Sv_cluster.Cluster.leaves b) )
        with
        | [ 2 ], [ 3 ] | [ 3 ], [ 2 ] -> Some true
        | _ -> (
            match find_pair a with Some r -> Some r | None -> find_pair b))
  in
  checkb "cuda+hip merge directly" true (find_pair dendro = Some true)

let test_navigation_points () =
  let serial = find stream "serial" in
  let others =
    List.filter (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model <> "serial")
      (Lazy.force stream)
  in
  let pts =
    Sv_core.Navigation.points ~app:Sv_perf.Pmodel.babelstream ~serial ~codebases:others
      ~platforms:Sv_perf.Platform.all
  in
  checki "nine points" 9 (List.length pts);
  List.iter
    (fun (p : Sv_core.Navigation.point) ->
      checkb "phi in range" true (p.Sv_core.Navigation.phi >= 0.0 && p.phi <= 1.0);
      checkb "divergences in range" true
        (p.div_t_sem >= 0.0 && p.div_t_sem <= 1.0 && p.div_t_src >= 0.0
        && p.div_t_src <= 1.0))
    pts;
  let kokkos = List.find (fun (p : Sv_core.Navigation.point) -> p.model_id = "kokkos") pts in
  checkb "kokkos is portable" true (kokkos.Sv_core.Navigation.phi > 0.5)

let test_scenario_stages () =
  let serial = find stream "serial" in
  let others =
    List.filter (fun (c : Pipeline.indexed) -> c.Pipeline.ix_model <> "serial")
      (Lazy.force stream)
  in
  let stages =
    Sv_core.Navigation.cuda_scenario ~app:Sv_perf.Pmodel.babelstream ~serial
      ~codebases:others
  in
  checki "three stages" 3 (List.length stages);
  let s1 = List.nth stages 0 and s2 = List.nth stages 1 in
  checkb "stage 1: cuda portable" true (s1.Sv_core.Navigation.phi_cuda > 0.99);
  checkb "stage 2: cuda collapses" true (s2.Sv_core.Navigation.phi_cuda = 0.0);
  checkb "stage 3 nominates an alternative" true
    ((List.nth stages 2).Sv_core.Navigation.best_alternative <> None)

let () =
  Alcotest.run "core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "index populates" `Slow test_index_populates_everything;
          Alcotest.test_case "system headers masked" `Quick test_system_headers_masked;
          Alcotest.test_case "deps include shims" `Quick test_deps_include_shims;
          Alcotest.test_case "coverage mask shrinks" `Quick test_coverage_masking_shrinks;
          Alcotest.test_case "index without run" `Quick test_index_without_run;
        ] );
      ( "tbmd",
        [
          Alcotest.test_case "self divergence zero" `Quick test_self_divergence_zero;
          Alcotest.test_case "unit interval" `Slow test_divergence_in_unit_interval;
          Alcotest.test_case "raw symmetry" `Quick test_raw_distance_symmetric;
          Alcotest.test_case "cross-language rejected" `Quick test_cross_language_rejected;
          Alcotest.test_case "absolute metrics" `Quick test_absolute_metrics;
          Alcotest.test_case "metric parsing" `Quick test_metric_parsing;
          Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
          Alcotest.test_case "flat matrices equal pointer TED"
            `Slow test_flat_matches_reference;
        ] );
      ( "paper-findings",
        [
          Alcotest.test_case "omp hidden semantics" `Quick test_finding_omp_hidden_semantics;
          Alcotest.test_case "cuda/hip twins" `Quick test_finding_cuda_hip_twins;
          Alcotest.test_case "sycl variants cluster" `Quick test_finding_sycl_variants_cluster;
          Alcotest.test_case "serial near omp" `Slow test_finding_serial_near_omp;
          Alcotest.test_case "inlining jump" `Quick test_finding_inlining_jump;
          Alcotest.test_case "ir driver inflation" `Quick test_finding_ir_driver_inflation;
          Alcotest.test_case "migration asymmetry" `Slow test_finding_migration_asymmetry;
          Alcotest.test_case "omp-target cheapest" `Slow test_finding_omp_target_cheapest;
          Alcotest.test_case "fortran acc" `Quick test_finding_fortran_acc;
          Alcotest.test_case "fortran array forms" `Quick test_finding_fortran_array_similarity;
          Alcotest.test_case "stepping stone api" `Slow test_stepping_stone_api;
        ] );
      ( "index-engine",
        [
          Alcotest.test_case "parallel model grain identical" `Quick
            test_engine_parallel_model_grain;
          Alcotest.test_case "parallel unit grain identical" `Quick
            test_engine_parallel_unit_grain;
          Alcotest.test_case "warm cache identical" `Quick test_engine_warm_cache;
          Alcotest.test_case "key invalidation" `Quick test_engine_key_invalidation;
          Alcotest.test_case "run record on demand" `Quick test_engine_run_on_demand;
          Alcotest.test_case "+cov needs a run" `Quick test_coverage_needs_run;
          Alcotest.test_case "trees-only CLI stores no run" `Quick test_cli_trees_only;
          Alcotest.test_case "corrupt payload recomputes" `Quick
            test_engine_corrupt_payload_recomputes;
        ] );
      ( "memo",
        [ Alcotest.test_case "keys on content" `Quick test_memo_keys_on_content ] );
      ( "generated-corpus",
        [
          Alcotest.test_case "index serial = pooled" `Quick
            test_generated_index_identical;
          Alcotest.test_case "matrix serial = pooled = cached" `Quick
            test_generated_matrix_identical;
          Alcotest.test_case "metric index exact" `Quick
            test_generated_metric_index;
          Alcotest.test_case "nearest after matrix runs no DP" `Quick
            test_nearest_after_matrix;
        ] );
      ( "integration",
        [
          Alcotest.test_case "dendrogram" `Quick test_dendrogram_runs;
          Alcotest.test_case "navigation points" `Slow test_navigation_points;
          Alcotest.test_case "scenario stages" `Quick test_scenario_stages;
        ] );
    ]
