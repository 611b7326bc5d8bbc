module Tree = Sv_tree.Tree
module Div = Sv_metrics.Divergence
module Db = Sv_db.Codebase_db
module M = Sv_msgpack.Msgpack
module Sched = Sv_sched.Sched

type metric = SLOC | LLOC | Source | TSrc | TSem | TSemI | TIr
type variant = Base | PP | Cov

let all_metrics = [ SLOC; LLOC; Source; TSrc; TSem; TSemI; TIr ]

let metric_label = function
  | SLOC -> "SLOC"
  | LLOC -> "LLOC"
  | Source -> "Source"
  | TSrc -> "T_src"
  | TSem -> "T_sem"
  | TSemI -> "T_sem+i"
  | TIr -> "T_ir"

let variant_label = function Base -> "" | PP -> "+pp" | Cov -> "+cov"

let metric_of_string s =
  match String.lowercase_ascii s with
  | "sloc" -> Some SLOC
  | "lloc" -> Some LLOC
  | "source" -> Some Source
  | "t_src" | "tsrc" -> Some TSrc
  | "t_sem" | "tsem" -> Some TSem
  | "t_sem+i" | "tsemi" | "t_sem_i" -> Some TSemI
  | "t_ir" | "tir" -> Some TIr
  | _ -> None

open Pipeline

let check_lang c1 c2 =
  if c1.ix_lang <> c2.ix_lang then
    invalid_arg "Tbmd: cannot compare codebases of different languages"

let unit_pairs c1 c2 =
  (* positional match; unmatched tails count fully against dmax later *)
  let rec zip a b =
    match (a, b) with
    | x :: xs, y :: ys -> (Some x, Some y) :: zip xs ys
    | x :: xs, [] -> (Some x, None) :: zip xs []
    | [], y :: ys -> (None, Some y) :: zip [] ys
    | [], [] -> []
  in
  zip c1.ix_units c2.ix_units

let count_of metric variant (u : unit_info) =
  match (metric, variant) with
  | SLOC, PP -> u.u_sloc_pp
  | SLOC, _ -> u.u_sloc
  | LLOC, PP -> u.u_lloc_pp
  | LLOC, _ -> u.u_lloc
  | _ -> invalid_arg "count_of: not an absolute metric"

let lines_of variant (u : unit_info) =
  match variant with PP -> u.u_lines_pp | _ -> u.u_lines

let tree_metric_tag = function
  | TSrc -> `TSrc
  | TSem -> `TSem
  | TSemI -> `TSemI
  | TIr -> `TIr
  | _ -> invalid_arg "tree_metric_tag"

let tree_of metric variant ix u =
  match (metric, variant) with
  | TSrc, PP -> Pipeline.unit_tree ~metric:`TSrcPP ~coverage:false ix u
  | m, Cov -> Pipeline.unit_tree ~metric:(tree_metric_tag m) ~coverage:true ix u
  | m, _ -> Pipeline.unit_tree ~metric:(tree_metric_tag m) ~coverage:false ix u

let absolute metric ix =
  match metric with
  | SLOC -> Some (List.fold_left (fun acc u -> acc + count_of SLOC Base u) 0 ix.ix_units)
  | LLOC -> Some (List.fold_left (fun acc u -> acc + count_of LLOC Base u) 0 ix.ix_units)
  | Source | TSrc | TSem | TSemI | TIr -> None

(* dmax depends only on the target codebase (Eq. 7). *)
let target_size ?(variant = Base) metric c =
  match metric with
  | SLOC | LLOC ->
      max 1 (List.fold_left (fun acc u -> acc + count_of metric variant u) 0 c.ix_units)
  | Source ->
      List.fold_left (fun acc u -> acc + Div.dmax_source (lines_of variant u)) 0 c.ix_units
  | TSrc | TSem | TSemI | TIr ->
      List.fold_left
        (fun acc u -> acc + Div.dmax_tree (tree_of metric variant c u))
        0 c.ix_units

(* The bench harness recomputes many pairs across figures (Fig. 4 and 5
   share every TeaLeaf pair; Figs. 9–10 reuse them again), so raw
   distances are memoised. The key is the two codebases' content keys
   ([ix_key], computed once when each was indexed), so re-indexing the
   same sources hits while any other codebase — a generated variant that
   reuses an id and a size, say — misses. The raw distance is symmetric
   and dmax is the target's size, so a miss whose reversed pair is
   memoised takes that distance: a query after a matrix over the same
   corpus runs no DP. *)
let cache : (string, int * int) Hashtbl.t = Hashtbl.create 512
let clear_memo () = Hashtbl.reset cache

let memo_key ~variant metric c1 c2 =
  String.concat "|" [ metric_label metric; variant_label variant; c1.ix_key; c2.ix_key ]

(* --- engine configuration ------------------------------------------- *)

(* [matrix] fans its pairwise jobs over this many forked workers; 1 (the
   default) keeps everything in-process. *)
let engine_jobs = ref 1
let set_jobs j = engine_jobs := max 1 j
let jobs () = !engine_jobs

(* When set, every pairwise TED first consults the persistent
   digest-keyed cache and records what it had to compute. *)
let engine_cache : Db.Ted_cache.cache option ref = ref None
let set_ted_cache c = engine_cache := c
let ted_cache () = !engine_cache

(* When set, [vp_index] first probes the persistent metric cache for a
   VP-tree persisted under this corpus/metric/variant, and records cold
   builds into it — `sv nearest` and the daemon's nearest verb become
   warm across restarts. *)
let engine_metric_cache : Sv_db.Metric_cache.cache option ref = ref None
let set_metric_cache c = engine_metric_cache := c
let metric_cache () = !engine_metric_cache

(* [Ted_cache.digest] strips locations, encodes and hashes a whole tree.
   A matrix hands the same tree values to n - 1 pairs, and a resident
   daemon to every request, so the digest is memoised per tree value:
   keyed by physical identity (a [Hashtbl.hash] probe, where re-interning
   the tree to find its canonical id costs more than the digest itself),
   with weak keys, so a memo entry lives no longer than its tree. *)
module Digest_memo = Ephemeron.K1.Make (struct
  type t = Sv_tree.Label.tree

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let digest_memo = Digest_memo.create 256

let ted_digest t =
  match Digest_memo.find_opt digest_memo t with
  | Some d -> d
  | None ->
      let d = Db.Ted_cache.digest t in
      Digest_memo.add digest_memo t d;
      d

let ted_distance t1 t2 =
  match !engine_cache with
  | None -> Div.tree_distance t1 t2
  | Some c -> (
      let da = ted_digest t1 and db = ted_digest t2 in
      match Db.Ted_cache.find c da db with
      | Some d -> d
      | None ->
          let d = Div.tree_distance t1 t2 in
          Db.Ted_cache.add c da db d;
          d)

let rec raw_divergence ?(variant = Base) metric c1 c2 =
  let key = memo_key ~variant metric c1 c2 in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r =
        match Hashtbl.find_opt cache (memo_key ~variant metric c2 c1) with
        | Some (d, _) -> (d, target_size ~variant metric c2)
        | None -> raw_divergence_uncached ~variant metric c1 c2
      in
      Hashtbl.replace cache key r;
      r

and raw_divergence_uncached ?(variant = Base) metric c1 c2 =
  check_lang c1 c2;
  let d =
    match metric with
    | SLOC | LLOC ->
        let total c = List.fold_left (fun acc u -> acc + count_of metric variant u) 0 c.ix_units in
        abs (total c1 - total c2)
    | Source ->
        List.fold_left
          (fun d pair ->
            match pair with
            | Some u1, Some u2 -> d + Div.source_distance (lines_of variant u1) (lines_of variant u2)
            | Some u, None | None, Some u -> d + List.length (lines_of variant u)
            | None, None -> d)
          0 (unit_pairs c1 c2)
    | TSrc | TSem | TSemI | TIr ->
        List.fold_left
          (fun d pair ->
            match pair with
            | Some u1, Some u2 ->
                let t1 = tree_of metric variant c1 u1 in
                let t2 = tree_of metric variant c2 u2 in
                d + ted_distance t1 t2
            | Some u1, None -> d + Tree.size (tree_of metric variant c1 u1)
            | None, Some u2 -> d + Tree.size (tree_of metric variant c2 u2)
            | None, None -> d)
          0 (unit_pairs c1 c2)
  in
  (d, target_size ~variant metric c2)

let divergence ?(variant = Base) metric c1 c2 =
  let d, dmax = raw_divergence ~variant metric c1 c2 in
  Div.normalised ~d ~dmax

(* Pipe codec for one pairwise result: the raw (d, dmax) pair plus the
   TED cache entries the worker had to compute, so warm-cache state built
   in children flows back to the parent. *)
let pair_result_to_msgpack (dij, dmaxij, adds) =
  M.Arr
    [
      M.Int dij;
      M.Int dmaxij;
      M.Arr (List.map (fun (a, b, dd) -> M.Arr [ M.Bin a; M.Bin b; M.Int dd ]) adds);
    ]

let pair_result_of_msgpack = function
  | M.Arr [ M.Int dij; M.Int dmaxij; M.Arr adds ] ->
      let adds =
        List.map
          (function
            | M.Arr [ M.Bin a; M.Bin b; M.Int dd ] -> (a, b, dd)
            | _ -> failwith "Tbmd: malformed cache addition")
          adds
      in
      (dij, dmaxij, adds)
  | _ -> failwith "Tbmd: malformed pair result"

let warm_trees metric variant codebases =
  match metric with
  | TSrc | TSem | TSemI | TIr ->
      Index_engine.warm_ted
        (List.concat_map
           (fun c -> List.map (fun u -> tree_of metric variant c u) c.ix_units)
           codebases)
  | SLOC | LLOC | Source -> ()

let matrix ?(variant = Base) metric codebases =
  (* every raw distance (TED, O(NP), |ΔSLOC|) is symmetric; only dmax is
     directional, so each unordered pair is computed once *)
  let arr = Array.of_list codebases in
  let n = Array.length arr in
  let labels = Array.map (fun c -> c.ix_model_name) arr in
  let dmax = Array.map (fun c -> target_size ~variant metric c) arr in
  let d = Array.make_matrix n n 0 in
  let pairs =
    Array.init (n * (n - 1) / 2) (fun _ -> (0, 0))
  in
  let idx = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs.(!idx) <- (i, j);
      incr idx
    done
  done;
  (* Tree metrics: compile every tree's flat form and size the DP scratch
     up front, so neither the serial loop nor any forked worker (which
     inherits the warm memo copy-on-write) compiles or reallocates
     mid-pair. Pair order below is untouched — results, memo and cache
     contents stay byte-identical. *)
  warm_trees metric variant codebases;
  let jobs = !engine_jobs in
  if jobs <= 1 || Array.length pairs < 2 then
    Array.iter
      (fun (i, j) ->
        let dij, _ = raw_divergence ~variant metric arr.(i) arr.(j) in
        d.(i).(j) <- dij;
        d.(j).(i) <- dij)
      pairs
  else begin
    (* Entries journalled before the fan-out belong to the parent; drop
       them from the journal (they are already in the table) so the first
       task of each worker ships only what it computed itself. *)
    (match !engine_cache with
    | Some c -> ignore (Db.Ted_cache.drain_additions c)
    | None -> ());
    let f (i, j) =
      let dij, dmaxij = raw_divergence ~variant metric arr.(i) arr.(j) in
      let adds =
        match !engine_cache with
        | Some c -> Db.Ted_cache.drain_additions c
        | None -> []
      in
      (dij, dmaxij, adds)
    in
    let results =
      Sched.map ~jobs ~encode:pair_result_to_msgpack
        ~decode:pair_result_of_msgpack ~f pairs
    in
    (* Reassembly in pair order keeps everything deterministic: the
       matrix trivially, but also the memo and cache contents. *)
    Array.iteri
      (fun k (dij, dmaxij, adds) ->
        let i, j = pairs.(k) in
        d.(i).(j) <- dij;
        d.(j).(i) <- dij;
        Hashtbl.replace cache (memo_key ~variant metric arr.(i) arr.(j)) (dij, dmaxij);
        match !engine_cache with
        | Some c -> Db.Ted_cache.merge c adds
        | None -> ())
      results
  end;
  Sv_cluster.Cluster.of_fn labels (fun i j ->
      if i = j then 0.0 else Div.normalised ~d:d.(i).(j) ~dmax:dmax.(j))

let dendrogram ?(variant = Base) ?(linkage = Sv_cluster.Cluster.Complete) metric codebases =
  let m = matrix ~variant metric codebases in
  let dist = Sv_cluster.Cluster.row_euclidean m in
  (m, Sv_cluster.Cluster.cluster linkage dist)

(* --- VP-tree k-NN over codebases (Fig. 15's navigation scenario) ------ *)

type vp = {
  vt : Sv_metric.Vptree.t;
  vp_arr : indexed array;
  vp_variant : variant;
  vp_metric : metric;
}

(* The persisted-tree key commits to every candidate's content key, in
   order — element ids are positions into that order. [ix_key] covers
   the sources, defines, dialect, run flag and pipeline version, so any
   change to any codebase, the candidate set, or its order yields a
   fresh key and the stale tree is merely unreachable. *)
let corpus_digest codebases =
  Digest.string (M.encode (M.Arr (List.map (fun c -> M.Bin c.ix_key) codebases)))

let vp_key ?(variant = Base) metric codebases =
  Sv_db.Metric_cache.key
    ~corpus_digest:(corpus_digest codebases)
    ~metric:(metric_label metric) ~variant:(variant_label variant) ()

let vp_index ?(variant = Base) metric codebases =
  let arr = Array.of_list codebases in
  let build () =
    warm_trees metric variant codebases;
    let dist i j = fst (raw_divergence ~variant metric arr.(i) arr.(j)) in
    Sv_metric.Vptree.build ~dist (Array.init (Array.length arr) Fun.id)
  in
  let vt =
    match !engine_metric_cache with
    | None -> build ()
    | Some mc -> (
        let key = vp_key ~variant metric codebases in
        match Sv_db.Metric_cache.find mc key with
        | Some vt when Sv_metric.Vptree.size vt = Array.length arr ->
            (* warm: zero build evaluations; queries compile flats
               lazily through the divergence memo *)
            vt
        | _ ->
            let vt = build () in
            Sv_db.Metric_cache.add mc key vt;
            vt)
  in
  { vt; vp_arr = arr; vp_variant = variant; vp_metric = metric }

let vp_build_evals t = Sv_metric.Vptree.build_evals t.vt

(* Every query evaluation is the exact, memoised raw divergence, so a
   query after a matrix (or an index build) over the same corpus reuses
   the pairs it settled. *)
let vp_nearest t ~k ?budget ?epsilon query =
  let dist id =
    fst (raw_divergence ~variant:t.vp_variant t.vp_metric query t.vp_arr.(id))
  in
  let hits, ledger = Sv_metric.Vptree.nearest ~dist ~k ?budget ?epsilon t.vt in
  ( List.map
      (fun (dv, id) ->
        let c = t.vp_arr.(id) in
        (c, dv, Div.normalised ~d:dv ~dmax:(target_size ~variant:t.vp_variant t.vp_metric c)))
      hits,
    ledger )
