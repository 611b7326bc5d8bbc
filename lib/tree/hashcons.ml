type 'a node = {
  id : int;
  label_id : int;
  digest : int64;
  hsize : int;
  label : 'a;
  kids : 'a node list;
}

type stats = { distinct : int; labels : int; hits : int; misses : int }

type 'a t = {
  lhash : 'a -> int;
  lequal : 'a -> 'a -> bool;
  (* label buckets: structural hash -> (label, label id) alist. A custom
     association because Hashtbl cannot carry a user equality, and label
     equality (e.g. [Label.equal]) is coarser than structural equality
     (it ignores locations). *)
  label_tbl : (int, ('a * int) list ref) Hashtbl.t;
  mutable n_labels : int;
  (* subtree table: (label id, child ids) -> node. Child ids are already
     canonical, so polymorphic hashing/equality on int keys is exact. *)
  node_tbl : (int * int list, 'a node) Hashtbl.t;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(init = 1024) ~hash ~equal () =
  {
    lhash = hash;
    lequal = equal;
    label_tbl = Hashtbl.create (max 16 (init / 8));
    n_labels = 0;
    node_tbl = Hashtbl.create init;
    next_id = 0;
    hits = 0;
    misses = 0;
  }

let intern_label t x =
  let h = t.lhash x in
  let bucket =
    match Hashtbl.find_opt t.label_tbl h with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add t.label_tbl h b;
        b
  in
  match List.find_opt (fun (y, _) -> t.lequal x y) !bucket with
  | Some (_, id) -> id
  | None ->
      let id = t.n_labels in
      t.n_labels <- id + 1;
      bucket := (x, id) :: !bucket;
      id

(* splitmix64 avalanche — the same mixer the fault layer and Prng use,
   chosen for dispersion, not cryptography. Id equality is the exact
   subtree-equality test; the digest only keys external artifacts. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let node_digest label_id kids =
  let seed = mix64 (Int64.add (Int64.of_int label_id) 0x9E3779B97F4A7C15L) in
  (* a multiplicative fold keeps child order significant *)
  List.fold_left
    (fun acc k -> mix64 (Int64.logxor (Int64.mul acc 0x100000001B3L) k.digest))
    seed kids

let rec intern t (Tree.Node (x, cs)) =
  let kids = List.map (intern t) cs in
  let label_id = intern_label t x in
  let key = (label_id, List.map (fun k -> k.id) kids) in
  match Hashtbl.find_opt t.node_tbl key with
  | Some n ->
      t.hits <- t.hits + 1;
      n
  | None ->
      t.misses <- t.misses + 1;
      let n =
        {
          id = t.next_id;
          label_id;
          digest = node_digest label_id kids;
          hsize = List.fold_left (fun acc k -> acc + k.hsize) 1 kids;
          label = x;
          kids;
        }
      in
      t.next_id <- t.next_id + 1;
      Hashtbl.add t.node_tbl key n;
      n

let rec extern n = Tree.Node (n.label, List.map extern n.kids)

let equal a b = a.id = b.id
let id n = n.id
let label_id n = n.label_id
let digest n = n.digest
let size n = n.hsize
let label n = n.label
let kids n = n.kids

let stats t =
  { distinct = Hashtbl.length t.node_tbl; labels = t.n_labels; hits = t.hits;
    misses = t.misses }

(* Canonical int-labelled view: equal subtrees (under the table's label
   equality) map to the *same physical* [int Tree.t], so downstream
   consumers — notably the TED kernels' equal-operand short-circuit —
   recognise shared structure with a pointer compare. *)
type 'a canonizer = { table : 'a t; memo : (int, int Tree.t) Hashtbl.t }

let canonizer ?init ~hash ~equal () =
  { table = create ?init ~hash ~equal (); memo = Hashtbl.create 4096 }

let rec canon_node c n =
  match Hashtbl.find_opt c.memo n.id with
  | Some t -> t
  | None ->
      let t = Tree.Node (n.label_id, List.map (canon_node c) n.kids) in
      Hashtbl.add c.memo n.id t;
      t

let canon c tree = canon_node c (intern c.table tree)

let canon_id c tree =
  let n = intern c.table tree in
  (n.id, canon_node c n)
