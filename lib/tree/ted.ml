type 'a costs = {
  delete : 'a -> int;
  insert : 'a -> int;
  relabel : 'a -> 'a -> int;
}

let unit_costs eq =
  {
    delete = (fun _ -> 1);
    insert = (fun _ -> 1);
    relabel = (fun a b -> if eq a b then 0 else 1);
  }

(* Postorder decomposition used by Zhang–Shasha: [labels] in postorder
   (1-based), [lml.(i)] the postorder index of node i's leftmost leaf, and
   the keyroots (nodes that start a new leftmost path, in ascending
   order). *)
type 'a decomp = { labels : 'a array; lml : int array; keyroots : int list }

let decompose t =
  let n = Tree.size t in
  let labels = Array.make (n + 1) (Tree.label t) in
  let lml = Array.make (n + 1) 0 in
  let counter = ref 0 in
  let rec go (Tree.Node (x, cs)) =
    let first_leaf = ref 0 in
    List.iteri
      (fun k c ->
        let leftmost = go c in
        if k = 0 then first_leaf := leftmost)
      cs;
    incr counter;
    let i = !counter in
    labels.(i) <- x;
    lml.(i) <- (if cs = [] then i else !first_leaf);
    if cs = [] then i else !first_leaf
  in
  ignore (go t);
  (* A node is a keyroot iff it is the highest node for its leftmost
     leaf. *)
  let seen = Hashtbl.create 16 in
  let keyroots = ref [] in
  for i = n downto 1 do
    if not (Hashtbl.mem seen lml.(i)) then begin
      Hashtbl.add seen lml.(i) ();
      keyroots := i :: !keyroots
    end
  done;
  { labels; lml; keyroots = !keyroots }

(* Specialised unit-cost kernel: no per-cell closure calls outside the
   relabel cells, one forest-distance buffer reused across keyroot pairs,
   integer mins written out as compares (without flambda a [Stdlib.min]
   is a generic-compare call) and unchecked array accesses in the
   O(n₁·n₂·…) inner loops. The metric layer runs [Flat]; this pointer-tree
   kernel is the reference the flat kernel is tested against, so it is
   kept fast enough to check whole matrices. *)
let distance_unit ~eq t1 t2 =
  let d1 = decompose t1 and d2 = decompose t2 in
  let n1 = Array.length d1.labels - 1 and n2 = Array.length d2.labels - 1 in
  let td = Array.make_matrix (n1 + 1) (n2 + 1) 0 in
  let l1 = d1.lml and l2 = d2.lml in
  let lab1 = d1.labels and lab2 = d2.labels in
  (* every cell a keyroot pair reads is written earlier in the same pair,
     so one buffer big enough for the largest pair serves them all *)
  let fd = Array.make_matrix (n1 + 2) (n2 + 2) 0 in
  let treedist i j =
    let li = Array.unsafe_get l1 i and lj = Array.unsafe_get l2 j in
    let w = i - li + 2 and h = j - lj + 2 in
    let fd0 = Array.unsafe_get fd 0 in
    for dj = 0 to h - 1 do
      Array.unsafe_set fd0 dj dj
    done;
    for di = 1 to w - 1 do
      let row = Array.unsafe_get fd di in
      let prev = Array.unsafe_get fd (di - 1) in
      Array.unsafe_set row 0 di;
      let ni = li + di - 1 in
      let lni = Array.unsafe_get l1 ni in
      let labi = Array.unsafe_get lab1 ni in
      let tdi = Array.unsafe_get td ni in
      (* both prefixes are whole trees iff also l2 matches on the column *)
      let whole_i = lni = li in
      let sub_row = Array.unsafe_get fd (lni - li) in
      for dj = 1 to h - 1 do
        let nj = lj + dj - 1 in
        let del = Array.unsafe_get prev dj + 1 in
        let ins = Array.unsafe_get row (dj - 1) + 1 in
        let m = if del <= ins then del else ins in
        if whole_i && Array.unsafe_get l2 nj = lj then begin
          let rel =
            Array.unsafe_get prev (dj - 1)
            + if eq labi (Array.unsafe_get lab2 nj) then 0 else 1
          in
          let v = if m <= rel then m else rel in
          Array.unsafe_set row dj v;
          Array.unsafe_set tdi nj v
        end
        else
          let sub =
            Array.unsafe_get sub_row (Array.unsafe_get l2 nj - lj)
            + Array.unsafe_get tdi nj
          in
          Array.unsafe_set row dj (if m <= sub then m else sub)
      done
    done
  in
  List.iter (fun i -> List.iter (fun j -> treedist i j) d2.keyroots) d1.keyroots;
  if n1 = 0 then n2 else if n2 = 0 then n1 else td.(n1).(n2)

(* The DP is only correct for non-negative operations with free
   relabelling of equal labels; a costs record violating that silently
   yields nonsense (e.g. a nonzero self-distance), so it is rejected
   loudly.  Labels are checked against themselves: [eq] is reflexive for
   every cost model the metric layer builds, so this covers the
   documented "0 on equal labels" precondition at O(n) closure calls. *)
let validate_costs c t1 t2 =
  let check l =
    if c.delete l < 0 || c.insert l < 0 then
      invalid_arg "Ted.distance: costs.delete/insert must be non-negative";
    if c.relabel l l <> 0 then
      invalid_arg "Ted.distance: costs.relabel must be 0 on equal labels"
  in
  List.iter check (Tree.preorder t1);
  List.iter check (Tree.preorder t2)

let distance ?costs ~eq t1 t2 =
  match costs with
  | None -> distance_unit ~eq t1 t2
  | Some _ ->
  let c = match costs with Some c -> c | None -> unit_costs eq in
  validate_costs c t1 t2;
  let d1 = decompose t1 and d2 = decompose t2 in
  let n1 = Array.length d1.labels - 1 and n2 = Array.length d2.labels - 1 in
  let td = Array.make_matrix (n1 + 1) (n2 + 1) 0 in
  let treedist i j =
    (* Forest-distance table over postorder slices [l1(i)-1 .. i] and
       [l2(j)-1 .. j], stored with offsets so index 0 means "empty
       forest". *)
    let li = d1.lml.(i) and lj = d2.lml.(j) in
    let w = i - li + 2 and h = j - lj + 2 in
    let fd = Array.make_matrix w h 0 in
    for di = 1 to w - 1 do
      fd.(di).(0) <- fd.(di - 1).(0) + c.delete d1.labels.(li + di - 1)
    done;
    for dj = 1 to h - 1 do
      fd.(0).(dj) <- fd.(0).(dj - 1) + c.insert d2.labels.(lj + dj - 1)
    done;
    for di = 1 to w - 1 do
      let ni = li + di - 1 in
      for dj = 1 to h - 1 do
        let nj = lj + dj - 1 in
        let del = fd.(di - 1).(dj) + c.delete d1.labels.(ni) in
        let ins = fd.(di).(dj - 1) + c.insert d2.labels.(nj) in
        if d1.lml.(ni) = li && d2.lml.(nj) = lj then begin
          let rel = fd.(di - 1).(dj - 1) + c.relabel d1.labels.(ni) d2.labels.(nj) in
          let v = min del (min ins rel) in
          fd.(di).(dj) <- v;
          td.(ni).(nj) <- v
        end
        else
          let sub = fd.(d1.lml.(ni) - li).(d2.lml.(nj) - lj) + td.(ni).(nj) in
          fd.(di).(dj) <- min del (min ins sub)
      done
    done
  in
  List.iter (fun i -> List.iter (fun j -> treedist i j) d2.keyroots) d1.keyroots;
  if n1 = 0 then n2
  else if n2 = 0 then n1
  else td.(n1).(n2)

(* Direct forest recursion with memoisation; the oracle assumes [eq]
   agrees with structural equality so memo keys (polymorphic hashing of
   forests) are sound. Only used on small trees in tests. *)
let distance_brute ~eq t1 t2 =
  let memo : (Obj.t * Obj.t, int) Hashtbl.t = Hashtbl.create 256 in
  let forest_size f = List.fold_left (fun a t -> a + Tree.size t) 0 f in
  let rec forests f g =
    match (f, g) with
    | [], [] -> 0
    | _, [] -> forest_size f
    | [], _ -> forest_size g
    | _ ->
        let key = (Obj.repr f, Obj.repr g) in
        (match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
            (* Split off the rightmost tree on each side. *)
            let split xs =
              match List.rev xs with
              | last :: rest -> (List.rev rest, last)
              | [] -> assert false
            in
            let f', Tree.Node (v, fv) = split f in
            let g', Tree.Node (w, gw) = split g in
            let del = forests (f' @ fv) g + 1 in
            let ins = forests f (g' @ gw) + 1 in
            let rel = forests f' g' + forests fv gw + (if eq v w then 0 else 1) in
            let r = min del (min ins rel) in
            Hashtbl.add memo key r;
            r)
  in
  forests [ t1 ] [ t2 ]
