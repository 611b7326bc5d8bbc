module Tree = Sv_tree.Tree
module Label = Sv_tree.Label

let source_distance a b =
  Sv_diff.Diff.edit_distance ~eq:String.equal (Array.of_list a) (Array.of_list b)

(* TED spends its time in label comparisons; a process-global hash-consing
   canonizer interns every distinct subtree once and hands the kernels
   physically shared int-labelled views ([Label.equal] classes, so
   locations never reach the DP). Equal trees — repeated matrix cells,
   shared headers, identical ports — share one intern id and skip the DP,
   and repeated operands skip re-interning of everything already seen.
   The table, like every memo below, belongs to the main domain. *)
let canonizer : Label.t Sv_tree.Hashcons.canonizer =
  Sv_tree.Hashcons.canonizer ~init:4096 ~hash:Label.hash ~equal:Label.equal ()

let canon t = Sv_tree.Hashcons.canon canonizer t

(* Flat kernels memoised by intern id: one compile per distinct tree for
   the life of the process, shared by every matrix cell that mentions it
   (and read, never written, by the domains of [with_dps]). *)
let flat_memo : (int, Sv_tree.Flat.t) Hashtbl.t = Hashtbl.create 1024

let flat_of_id id view =
  match Hashtbl.find_opt flat_memo id with
  | Some f -> f
  | None ->
      let f = Sv_tree.Flat.of_tree view in
      Hashtbl.add flat_memo id f;
      f

(* A matrix hands the same tree values to n - 1 pairs, and a resident
   daemon to every request, so each tree's intern id and canonical view
   are memoised per tree value: keyed by physical identity, with weak
   keys, so an entry lives no longer than its tree. Interning walks and
   hashes the whole tree; the memo probe hashes only its top. *)
module Id_memo = Ephemeron.K1.Make (struct
  type t = Label.tree

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let id_memo = Id_memo.create 256

let canon_id t =
  match Id_memo.find_opt id_memo t with
  | Some iv -> iv
  | None ->
      let iv = Sv_tree.Hashcons.canon_id canonizer t in
      Id_memo.add id_memo t iv;
      iv

let warm_flat t =
  let id, view = canon_id t in
  ignore (flat_of_id id view)

let dp_ids t1 t2 =
  let id1, v1 = canon_id t1 in
  let id2, v2 = canon_id t2 in
  if id1 = id2 then None
  else begin
    ignore (flat_of_id id1 v1);
    ignore (flat_of_id id2 v2);
    Some (id1, id2)
  end

(* DP results computed ahead of the loop that asks for them, keyed by
   the operands' intern ids; empty outside [with_dps]. *)
let ready : (int * int, int) Hashtbl.t = Hashtbl.create 0

(* Domains take the DPs, largest first, from a shared counter; each owns
   its scratch (the calling domain the shared one) and its result slots,
   and counts nothing. An exception on any domain is re-raised here once
   every domain has been joined. *)
let run_dps ~domains (flats : (Sv_tree.Flat.t * Sv_tree.Flat.t) array) =
  let results = Array.make (Array.length flats) 0 in
  let next = Atomic.make 0 in
  let rec work scratch =
    let k = Atomic.fetch_and_add next 1 in
    if k < Array.length flats then begin
      let a, b = flats.(k) in
      results.(k) <- Sv_tree.Flat.dp ?scratch a b;
      work scratch
    end
  in
  let others =
    List.init (domains - 1) (fun _ ->
        Domain.spawn (fun () -> work (Some (Sv_tree.Flat.scratch ()))))
  in
  let mine = try Ok (work None) with e -> Error e in
  let joined = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) others in
  List.iter (function Ok () -> () | Error e -> raise e) (mine :: joined);
  results

let with_dps ~domains ids f =
  let cost (a, b) = Sv_tree.Flat.cells a b in
  let jobs =
    List.map (fun (i, j) -> ((i, j), (Hashtbl.find flat_memo i, Hashtbl.find flat_memo j))) ids
    |> List.stable_sort (fun (_, x) (_, y) -> compare (cost y) (cost x))
    |> Array.of_list
  in
  let ds = run_dps ~domains (Array.map snd jobs) in
  Array.iteri (fun k (key, _) -> Hashtbl.replace ready key ds.(k)) jobs;
  Fun.protect ~finally:(fun () -> Hashtbl.reset ready) f

(* Every distinct canonical tree is compiled once into Flat's contiguous
   arrays (memoised above by intern id) and compared by the
   allocation-free flat kernel, unless [with_dps] already ran its DP. *)
let tree_distance t1 t2 =
  let id1, v1 = canon_id t1 in
  let id2, v2 = canon_id t2 in
  if id1 = id2 then begin
    let open Sv_perf.Telemetry in
    ted.equal_prunes <- ted.equal_prunes + 1;
    0
  end
  else
    let f1 = flat_of_id id1 v1 and f2 = flat_of_id id2 v2 in
    match
      if Hashtbl.length ready = 0 then None else Hashtbl.find_opt ready (id1, id2)
    with
    | Some d ->
        Sv_tree.Flat.count_dp f1 f2;
        d
    | None -> Sv_tree.Flat.distance f1 f2

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
