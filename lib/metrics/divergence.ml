module Tree = Sv_tree.Tree
module Label = Sv_tree.Label

let source_distance a b =
  Sv_diff.Diff.edit_distance ~eq:String.equal (Array.of_list a) (Array.of_list b)

(* TED spends its time in label comparisons; a process-global hash-consing
   canonizer interns every distinct subtree once and hands the kernels
   physically shared int-labelled views ([Label.equal] classes, so
   locations never reach the DP). Equal trees — repeated matrix cells,
   shared headers, identical ports — share one intern id and skip the DP,
   and repeated operands skip re-interning of everything already seen. Forked workers each inherit a private copy of
   the table, so the pool stays deterministic. *)
let canonizer : Label.t Sv_tree.Hashcons.canonizer =
  Sv_tree.Hashcons.canonizer ~init:4096 ~hash:Label.hash ~equal:Label.equal ()

let canon t = Sv_tree.Hashcons.canon canonizer t

(* Flat kernels memoised by intern id: one compile per distinct tree for
   the life of the process, shared by every matrix cell that mentions it.
   Forked workers inherit the parent's memo copy-on-write, so pre-warming
   the memo before a fan-out (see [Index_engine.warm_ted]) means no
   worker recompiles what the parent already has. *)
let flat_memo : (int, Sv_tree.Flat.t) Hashtbl.t = Hashtbl.create 1024

let flat_of_id id view =
  match Hashtbl.find_opt flat_memo id with
  | Some f -> f
  | None ->
      let f = Sv_tree.Flat.of_tree view in
      Hashtbl.add flat_memo id f;
      f

let warm_flat t =
  let id, view = Sv_tree.Hashcons.canon_id canonizer t in
  ignore (flat_of_id id view)

(* Every distinct canonical tree is compiled once into Flat's contiguous
   arrays (memoised above by intern id) and compared by the
   allocation-free flat kernel. *)
let tree_distance t1 t2 =
  let id1, v1 = Sv_tree.Hashcons.canon_id canonizer t1 in
  let id2, v2 = Sv_tree.Hashcons.canon_id canonizer t2 in
  if id1 = id2 then begin
    let open Sv_perf.Telemetry in
    ted.equal_prunes <- ted.equal_prunes + 1;
    0
  end
  else Sv_tree.Flat.distance (flat_of_id id1 v1) (flat_of_id id2 v2)

let tree_distance_matched t1 t2 =
  let root_cost = if Label.equal (Tree.label t1) (Tree.label t2) then 0 else 1 in
  (* Align the children sequences by an LCS over coarse fingerprints
     (root kind + size bucket) so an inserted declaration — a CUDA kernel,
     a shim function — is charged wholesale instead of shifting every
     later pair. The alignment is order-preserving, hence still a valid
     edit script and an upper bound of exact TED. *)
  let alike a b =
    let la : Label.t = Tree.label a and lb : Label.t = Tree.label b in
    la.Label.kind = lb.Label.kind
    && la.Label.text = lb.Label.text
    &&
    let sa = Tree.size a and sb = Tree.size b in
    (* same shape class: sizes within 2x (tiny subtrees always match) *)
    (sa < 16 && sb < 16) || (sa <= 2 * sb && sb <= 2 * sa)
  in
  let c1 = Array.of_list (Tree.children t1) in
  let c2 = Array.of_list (Tree.children t2) in
  let script = Sv_diff.Diff.script ~eq:alike c1 c2 in
  (* Walk the script with explicit cursors so each Keep pairs the aligned
     children; the paired exact TED then refines the coarse match. *)
  let i = ref 0 and j = ref 0 and acc = ref root_cost in
  List.iter
    (fun op ->
      match op with
      | Sv_diff.Diff.Keep _ ->
          acc := !acc + tree_distance c1.(!i) c2.(!j);
          incr i;
          incr j
      | Sv_diff.Diff.Delete _ ->
          acc := !acc + Tree.size c1.(!i);
          incr i
      | Sv_diff.Diff.Insert _ ->
          acc := !acc + Tree.size c2.(!j);
          incr j)
    script;
  !acc

let dmax_tree t2 = Tree.size t2
let dmax_source lines = List.length lines

let normalised ~d ~dmax =
  if dmax = 0 then if d = 0 then 0.0 else 1.0
  else Float.min 1.0 (float_of_int d /. float_of_int dmax)

(* A node survives when its own span executed OR any descendant did:
   structural nodes (function headers, unit roots) live on lines the
   profiler never marks, but they are on the path to executed code and
   must stay, exactly as GCov keeps a function whose body ran. *)
let mask_tree cov t =
  let rec go (Tree.Node (l, cs)) =
    let kept = List.filter_map go cs in
    if kept <> [] || Sv_util.Coverage.keep_loc cov l.Label.loc then
      Some (Tree.Node (l, kept))
    else None
  in
  match go t with
  | Some t' -> t'
  | None -> Tree.leaf (Tree.label t)
