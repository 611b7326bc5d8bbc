(* Tests for Sv_tree: rose-tree operations, labels, and the TED
   implementations (Zhang–Shasha vs brute-force oracle, metric
   properties). *)

module Tree = Sv_tree.Tree
module Ted = Sv_tree.Ted
module Flat = Sv_tree.Flat
module Label = Sv_tree.Label

let leaf = Tree.leaf
let node = Tree.node
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* a small deterministic example tree *)
let t_example = node 1 [ node 2 [ leaf 4; leaf 5 ]; leaf 3 ]

let test_size_depth () =
  checki "size" 5 (Tree.size t_example);
  checki "depth" 3 (Tree.depth t_example);
  checki "leaf size" 1 (Tree.size (leaf 0));
  checki "leaf depth" 1 (Tree.depth (leaf 0))

let test_orders () =
  Alcotest.(check (list int)) "preorder" [ 1; 2; 4; 5; 3 ] (Tree.preorder t_example);
  Alcotest.(check (list int)) "postorder" [ 4; 5; 2; 3; 1 ] (Tree.postorder t_example);
  Alcotest.(check (list int)) "leaves" [ 4; 5; 3 ] (Tree.leaves t_example)

let test_map_fold () =
  let doubled = Tree.map (fun x -> x * 2) t_example in
  Alcotest.(check (list int)) "mapped" [ 2; 4; 8; 10; 6 ] (Tree.preorder doubled);
  let sum = Tree.fold (fun x kids -> x + List.fold_left ( + ) 0 kids) t_example in
  checki "fold sum" 15 sum

let test_count_exists () =
  checki "count evens" 2 (Tree.count (fun x -> x mod 2 = 0) t_example);
  checkb "exists" true (Tree.exists (fun x -> x = 5) t_example);
  checkb "not exists" false (Tree.exists (fun x -> x = 9) t_example)

let test_filter_prune () =
  (* dropping node 2 removes its whole subtree *)
  match Tree.filter_prune (fun x -> x <> 2) t_example with
  | Some t ->
      Alcotest.(check (list int)) "subtree gone" [ 1; 3 ] (Tree.preorder t)
  | None -> Alcotest.fail "root should survive"

let test_filter_prune_root () =
  checkb "root dropped" true (Tree.filter_prune (fun x -> x <> 1) t_example = None)

let test_filter_splice () =
  (* dropping node 2 splices 4 and 5 into the root *)
  match Tree.filter_splice (fun x -> x <> 2) t_example with
  | Some t -> Alcotest.(check (list int)) "spliced" [ 1; 4; 5; 3 ] (Tree.preorder t)
  | None -> Alcotest.fail "root should survive"

let test_equal_hash () =
  let t2 = node 1 [ node 2 [ leaf 4; leaf 5 ]; leaf 3 ] in
  checkb "equal" true (Tree.equal Int.equal t_example t2);
  checki "hash equal" (Tree.hash Fun.id t_example) (Tree.hash Fun.id t2);
  let t3 = node 1 [ leaf 3; node 2 [ leaf 4; leaf 5 ] ] in
  checkb "order matters" false (Tree.equal Int.equal t_example t3)

let test_flatten_forest () =
  let f = Tree.flatten_forest 0 [ leaf 1; leaf 2 ] in
  checki "forest size" 3 (Tree.size f)

(* --- labels --- *)

let test_label_equal_ignores_loc () =
  let a = Label.v ~text:"x" ~loc:(Sv_util.Loc.make ~file:"f" ~line:1 ~col:0) "call" in
  let b = Label.v ~text:"x" ~loc:(Sv_util.Loc.make ~file:"g" ~line:9 ~col:4) "call" in
  checkb "loc ignored" true (Label.equal a b);
  checki "hash agrees" (Label.hash a) (Label.hash b);
  checkb "kind matters" false (Label.equal a (Label.v ~text:"x" "index"));
  checkb "text matters" false (Label.equal a (Label.v ~text:"y" "call"))

let test_label_spine () =
  let t = node (Label.v "a") [ leaf (Label.v "b") ] in
  Alcotest.(check (list string)) "spine" [ "a"; "b" ] (Label.spine t)

(* --- TED --- *)

let ted a b = Ted.distance ~eq:Int.equal a b

let test_ted_identity () = checki "self distance" 0 (ted t_example t_example)

let test_ted_leaf_relabel () = checki "relabel" 1 (ted (leaf 1) (leaf 2))

let test_ted_insert_delete () =
  checki "insert one" 1 (ted (leaf 1) (node 1 [ leaf 2 ]));
  checki "delete one" 1 (ted (node 1 [ leaf 2 ]) (leaf 1))

let test_ted_paper_figure () =
  (* Fig. 1 of the paper: two small ASTs at distance five — one relabel
     plus four inserted/deleted nodes. Modelled here with int labels. *)
  let t1 = node 0 [ leaf 8; node 1 [ leaf 2; leaf 3 ]; leaf 4 ] in
  let t2 = node 9 [ node 1 [ leaf 2; leaf 3; node 5 [ leaf 6 ] ]; leaf 4; leaf 7 ] in
  checki "distance five" 5 (ted t1 t2)

let test_ted_disjoint () =
  (* no shared labels: cheapest edit is relabel-all plus size delta *)
  let t1 = node 1 [ leaf 2 ] and t2 = node 3 [ leaf 4; leaf 5 ] in
  checki "disjoint" 3 (ted t1 t2)

(* random tree generator over a small label alphabet *)
let gen_tree =
  QCheck.Gen.(
    sized_size (int_bound 12) (fix (fun self n ->
        if n <= 0 then map Tree.leaf (int_bound 3)
        else
          map2 Tree.node (int_bound 3)
            (list_size (int_bound 3) (self (n / 2))))))

let arb_tree = QCheck.make ~print:(fun t ->
    Format.asprintf "%a" (Tree.pp Format.pp_print_int) t)
    gen_tree

let prop_ted_vs_brute =
  QCheck.Test.make ~name:"zhang-shasha agrees with brute force" ~count:200
    (QCheck.pair arb_tree arb_tree)
    (fun (a, b) -> ted a b = Ted.distance_brute ~eq:Int.equal a b)

let prop_ted_symmetric =
  QCheck.Test.make ~name:"unit-cost TED is symmetric" ~count:200
    (QCheck.pair arb_tree arb_tree)
    (fun (a, b) -> ted a b = ted b a)

let prop_ted_identity =
  QCheck.Test.make ~name:"TED t t = 0" ~count:200 arb_tree (fun t -> ted t t = 0)

let prop_ted_bounds =
  QCheck.Test.make ~name:"TED bounded by sum of sizes" ~count:200
    (QCheck.pair arb_tree arb_tree)
    (fun (a, b) ->
      let d = ted a b in
      d >= 0
      && d <= Tree.size a + Tree.size b
      && d >= abs (Tree.size a - Tree.size b))

let prop_ted_triangle =
  QCheck.Test.make ~name:"TED triangle inequality" ~count:100
    (QCheck.triple arb_tree arb_tree arb_tree)
    (fun (a, b, c) -> ted a c <= ted a b + ted b c)

let prop_ted_zero_iff_equal =
  QCheck.Test.make ~name:"TED zero iff structurally equal" ~count:200
    (QCheck.pair arb_tree arb_tree)
    (fun (a, b) -> ted a b = 0 = Tree.equal Int.equal a b)

let prop_prune_shrinks =
  QCheck.Test.make ~name:"filter_prune never grows the tree" ~count:200 arb_tree
    (fun t ->
      match Tree.filter_prune (fun x -> x <> 1) t with
      | None -> true
      | Some t' -> Tree.size t' <= Tree.size t)

let prop_splice_preserves_kept_labels =
  QCheck.Test.make ~name:"filter_splice keeps exactly passing labels" ~count:200 arb_tree
    (fun t ->
      let keep x = x <> 2 in
      match Tree.filter_splice keep t with
      | None -> List.for_all (fun x -> not (keep x)) (Tree.preorder t)
      | Some t' ->
          List.sort compare (Tree.preorder t')
          = List.sort compare (List.filter keep (Tree.preorder t)))

let prop_size_is_preorder_length =
  QCheck.Test.make ~name:"size equals preorder length" ~count:200 arb_tree (fun t ->
      Tree.size t = List.length (Tree.preorder t))

(* --- costs-record validation --- *)

let test_costs_validation () =
  let bad_relabel =
    {
      Ted.delete = (fun _ -> 1);
      insert = (fun _ -> 1);
      relabel = (fun _ _ -> 1);
    }
  in
  Alcotest.check_raises "nonzero relabel on equal labels"
    (Invalid_argument "Ted.distance: costs.relabel must be 0 on equal labels")
    (fun () ->
      ignore (Ted.distance ~costs:bad_relabel ~eq:Int.equal t_example t_example));
  let neg_delete =
    {
      Ted.delete = (fun _ -> -1);
      insert = (fun _ -> 1);
      relabel = (fun x y -> if x = y then 0 else 1);
    }
  in
  Alcotest.check_raises "negative delete cost"
    (Invalid_argument "Ted.distance: costs.delete/insert must be non-negative")
    (fun () ->
      ignore (Ted.distance ~costs:neg_delete ~eq:Int.equal t_example t_example))

(* --- seeded oracle suite -------------------------------------------- *)

(* A Prng-seeded generator independent of QCheck, so the default run
   covers a guaranteed number of pairs (SV_PROP_ITERS, ≥ 500) and any
   failure reports the exact pair. *)

module Prng = Sv_util.Prng

let prop_iters =
  match Sys.getenv_opt "SV_PROP_ITERS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> 500)
  | None -> 500

let rec gen_tree_sized rng n =
  let label = Prng.int rng 4 in
  if n <= 1 then Tree.leaf label
  else begin
    let kids = ref [] and remaining = ref (n - 1) in
    while !remaining > 0 do
      let take = 1 + Prng.int rng !remaining in
      kids := gen_tree_sized rng take :: !kids;
      remaining := !remaining - take
    done;
    Tree.node label (List.rev !kids)
  end

let show_tree t = Format.asprintf "%a" (Tree.pp Format.pp_print_int) t

(* Every TED fact we promise, checked on one pair. [max_brute] bounds
   when the exponential brute-force oracle is consulted. *)
let check_pair ~max_brute i a b c =
  let ctx fmt =
    Printf.ksprintf
      (fun msg ->
        Alcotest.failf "pair %d (%s vs %s): %s" i (show_tree a) (show_tree b) msg)
      fmt
  in
  let d = ted a b in
  let sa = Tree.size a and sb = Tree.size b in
  if sa + sb <= max_brute then begin
    let oracle = Ted.distance_brute ~eq:Int.equal a b in
    if d <> oracle then ctx "distance %d but brute-force oracle %d" d oracle
  end;
  if ted b a <> d then ctx "not symmetric: %d vs %d" d (ted b a);
  if d = 0 && not (Tree.equal Int.equal a b) then ctx "zero distance on unequal trees";
  if d <> 0 && Tree.equal Int.equal a b then ctx "nonzero distance %d on equal trees" d;
  if d < abs (sa - sb) then ctx "below the size-delta lower bound";
  if d > sa + sb then ctx "above the size-sum upper bound";
  let fa = Flat.of_tree a and fb = Flat.of_tree b in
  let fd = Flat.distance fa fb in
  if fd <> d then ctx "flat kernel %d disagrees with distance %d" fd d;
  if Flat.distance fb fa <> d then
    ctx "flat kernel not symmetric: %d vs %d" (Flat.distance fb fa) d;
  let dac = ted a c and dbc = ted b c in
  if dac > d + dbc then
    ctx "triangle inequality violated via %s: %d > %d + %d" (show_tree c) dac d dbc

let run_oracle ~iters ~max_nodes ~max_brute () =
  let rng = Prng.create 0x7ed0_5eed in
  for i = 1 to iters do
    let size () = 1 + Prng.int rng max_nodes in
    let a = gen_tree_sized rng (size ()) in
    let b = gen_tree_sized rng (size ()) in
    let c = gen_tree_sized rng (size ()) in
    check_pair ~max_brute i a b c
  done

let test_oracle_default () = run_oracle ~iters:(max 500 prop_iters) ~max_nodes:10 ~max_brute:18 ()

(* Long mode: larger trees stress the keyroots decomposition; the brute
   oracle only sees pairs it can afford. Excluded from @quick via the
   `Slow speed level. *)
let test_oracle_long () =
  run_oracle ~iters:(max 500 prop_iters) ~max_nodes:26 ~max_brute:20 ()

(* Generated mode: the same differential, but over subtrees harvested
   from real T_sem trees of synthetic program variants (Sv_gen), so the
   kernels face realistic label alphabets, arities and depths — not just
   the uniform shapes gen_tree_sized produces. Labels are mapped to ints
   via an intern table keyed on (kind, text), matching Label.equal. *)
let test_oracle_generated () =
  let module Gen = Sv_gen.Gen in
  let module Pipeline = Sv_core.Pipeline in
  let spec = { Gen.seed = 0x5eed; count = 6; mode = Gen.Mixed; base = "babelstream" } in
  let intern = Hashtbl.create 256 in
  let int_label (l : Label.t) =
    let key = (l.Label.kind, l.Label.text) in
    match Hashtbl.find_opt intern key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length intern in
        Hashtbl.add intern key i;
        i
  in
  let rec harvest acc t =
    let acc = if Tree.size t <= 30 then t :: acc else acc in
    List.fold_left harvest acc (Tree.children t)
  in
  let pool =
    List.concat_map
      (fun v ->
        let ix = Pipeline.index ~run:false v.Gen.v_cb in
        List.concat_map
          (fun u -> harvest [] (Tree.map int_label u.Pipeline.u_t_sem))
          ix.Pipeline.ix_units)
      (Gen.generate spec)
    |> Array.of_list
  in
  if Array.length pool < 100 then
    Alcotest.failf "only %d harvested subtrees; the differential would be thin"
      (Array.length pool);
  let rng = Prng.create 0x6e7_5eed in
  let pick () = pool.(Prng.int rng (Array.length pool)) in
  for i = 1 to max 500 prop_iters do
    check_pair ~max_brute:18 i (pick ()) (pick ()) (pick ())
  done

(* --- hash-consing --------------------------------------------------- *)

module Hc = Sv_tree.Hashcons

(* intern ∘ extern = id: the table must preserve the tree exactly (int
   labels, so label equality is structural). *)
let test_hashcons_extern_id () =
  let tbl = Hc.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  let rng = Prng.create 0xca11_ab1e in
  for i = 1 to max 500 prop_iters do
    let t = gen_tree_sized rng (1 + Prng.int rng 24) in
    let n = Hc.intern tbl t in
    if not (Tree.equal Int.equal (Hc.extern n) t) then
      Alcotest.failf "tree %d: extern (intern t) <> t for %s" i (show_tree t);
    if Hc.size n <> Tree.size t then
      Alcotest.failf "tree %d: interned size %d <> %d" i (Hc.size n) (Tree.size t)
  done;
  let s = Hc.stats tbl in
  if s.Hc.labels > 4 then
    Alcotest.failf "label alphabet is 0..3 but table holds %d labels" s.Hc.labels

(* Tree.equal ⇔ id equality (and ⇒ digest equality) on seeded pairs.
   Pairs are drawn small so equal pairs actually occur. *)
let test_hashcons_equal_iff_id () =
  let tbl = Hc.create ~hash:Hashtbl.hash ~equal:Int.equal () in
  let rng = Prng.create 0x1d_c0de in
  let equal_pairs = ref 0 in
  for i = 1 to max 500 prop_iters do
    let a = gen_tree_sized rng (1 + Prng.int rng 5) in
    let b = gen_tree_sized rng (1 + Prng.int rng 5) in
    let na = Hc.intern tbl a and nb = Hc.intern tbl b in
    let structural = Tree.equal Int.equal a b in
    if structural then incr equal_pairs;
    if Hc.equal na nb <> structural then
      Alcotest.failf "pair %d: id equality %b but structural %b (%s vs %s)" i
        (Hc.equal na nb) structural (show_tree a) (show_tree b);
    if (Hc.id na = Hc.id nb) <> structural then
      Alcotest.failf "pair %d: Hc.equal and id comparison disagree" i;
    if structural && Hc.digest na <> Hc.digest nb then
      Alcotest.failf "pair %d: equal trees with different digests" i
  done;
  if !equal_pairs = 0 then
    Alcotest.fail "generator never produced an equal pair; test is vacuous"

(* Canonical int views feed the TED kernels: distances through canon must
   match the plain reference (and the brute oracle transitively, since
   the reference is oracle-checked above), on the pointer-tree kernel and
   on the flat kernel compiled from the shared views. *)
let test_hashcons_canon_ted_agrees () =
  let c = Hc.canonizer ~hash:Hashtbl.hash ~equal:Int.equal () in
  let rng = Prng.create 0x7ed0_5eed in
  for i = 1 to max 500 prop_iters do
    let a = gen_tree_sized rng (1 + Prng.int rng 10) in
    let b = gen_tree_sized rng (1 + Prng.int rng 10) in
    let ca = Hc.canon c a and cb = Hc.canon c b in
    (* physical sharing: equal trees canonise to the same pointer *)
    if Tree.equal Int.equal a b && not (ca == cb) then
      Alcotest.failf "pair %d: equal trees not physically shared" i;
    let d = ted a b in
    if ted ca cb <> d then
      Alcotest.failf "pair %d: TED through canon %d, direct %d (%s vs %s)" i
        (ted ca cb) d (show_tree a) (show_tree b);
    let fa = Flat.of_tree ca and fb = Flat.of_tree cb in
    if Flat.distance fa fb <> d then
      Alcotest.failf "pair %d: flat TED through canon %d, direct %d" i
        (Flat.distance fa fb) d;
    if Flat.distance fa (Flat.of_tree ca) <> 0 then
      Alcotest.failf "pair %d: a recompiled flat is not at distance 0" i
  done

(* --- flat kernel ----------------------------------------------------- *)

module T = Sv_perf.Telemetry

(* Degenerate shapes where off-by-ones would bite: single nodes,
   uniform labels, and a chain vs a star of the same size and labels. *)
let test_flat_degenerate () =
  let chain n = List.fold_left (fun acc _ -> node 0 [ acc ]) (leaf 0) (List.init (n - 1) Fun.id) in
  let star n = node 0 (List.init (n - 1) (fun _ -> leaf 0)) in
  let pairs =
    [
      (leaf 0, leaf 0); (leaf 0, leaf 1); (leaf 0, chain 6); (chain 6, star 6);
      (star 6, star 6); (chain 9, chain 2); (t_example, leaf 1);
    ]
  in
  List.iteri
    (fun i (a, b) ->
      let want = Ted.distance_brute ~eq:Int.equal a b in
      if ted a b <> want then
        Alcotest.failf "degenerate pair %d: zs %d, brute %d" i (ted a b) want;
      let fa = Flat.of_tree a and fb = Flat.of_tree b in
      if Flat.distance fa fb <> want then
        Alcotest.failf "degenerate pair %d: flat %d, brute %d" i (Flat.distance fa fb) want)
    pairs

(* Left and right combs skew the keyroot costs maximally; the strategy
   rule must pick the cheap direction on both orders and the distances
   must be unchanged. *)
let test_flat_strategy_combs () =
  let rec left_comb n = if n <= 1 then leaf 7 else node 3 [ left_comb (n - 2); leaf 1 ] in
  let rec right_comb n = if n <= 1 then leaf 7 else node 3 [ leaf 1; right_comb (n - 2) ] in
  let a = left_comb 41 and b = right_comb 41 in
  let zab = ted a b in
  let zaa = ted a (left_comb 39) in
  let zbb = ted b (right_comb 39) in
  let before = T.ted_snapshot () in
  let fa = Flat.of_tree a and fb = Flat.of_tree b in
  let fab = Flat.distance fa fb in
  let faa = Flat.distance fa (Flat.of_tree (left_comb 39)) in
  let fbb = Flat.distance fb (Flat.of_tree (right_comb 39)) in
  checki "comb distance flat=zs" zab fab;
  checki "left-comb pair flat=zs" zaa faa;
  checki "right-comb pair flat=zs" zbb fbb;
  let diff = T.ted_diff ~before ~after:(T.ted_snapshot ()) in
  (* the two same-leaning pairs must split one left, one right *)
  if diff.T.strategy_left < 1 || diff.T.strategy_right < 1 then
    Alcotest.failf "strategy never flipped (left %d, right %d)" diff.T.strategy_left
      diff.T.strategy_right;
  checki "every pair ran the DP" 3 diff.T.dp_runs

(* One scratch context across interleaved sizes: dirty buffers must never
   leak between pairs, and results must match fresh-scratch runs. *)
let test_flat_scratch_reuse () =
  let rng = Prng.create 0xf1a7_b0f5 in
  let s = Flat.scratch () in
  let flats =
    Array.init 24 (fun _ -> Flat.of_tree (gen_tree_sized rng (1 + Prng.int rng 30)))
  in
  Array.iteri
    (fun i fa ->
      Array.iteri
        (fun j fb ->
          let shared_scratch = Flat.distance ~scratch:s fa fb in
          let fresh = Flat.distance ~scratch:(Flat.scratch ()) fa fb in
          if shared_scratch <> fresh then
            Alcotest.failf "pair (%d,%d): reused scratch %d, fresh %d" i j
              shared_scratch fresh)
        flats)
    flats

(* [reserve] pre-grows; subsequent in-bound pairs must not grow again. *)
let test_flat_reserve () =
  let s = Flat.scratch () in
  Flat.reserve ~scratch:s 64 64;
  let rng = Prng.create 0xbeef in
  let before = T.ted_snapshot () in
  for _ = 1 to 20 do
    let a = Flat.of_tree (gen_tree_sized rng (1 + Prng.int rng 60)) in
    let b = Flat.of_tree (gen_tree_sized rng (1 + Prng.int rng 60)) in
    ignore (Flat.distance ~scratch:s a b)
  done;
  let diff = T.ted_diff ~before ~after:(T.ted_snapshot ()) in
  checki "no scratch growth after reserve" 0 diff.T.scratch_grows

(* --- planted repeats --------------------------------------------------- *)

(* The kernel copies the td cells of a keyroot whose subtree repeats an
   earlier keyroot's. [kcost_product] is the cell count the kernel would
   run with no copies: the keyroot spans Σ|i| of each direction (a node
   is a left keyroot iff it is the root or has a left sibling, a right
   keyroot iff it is the root or has a right sibling), multiplied in the
   direction the kernel picks. *)
let kcost_product a b =
  let spans t =
    let rec go ~kl ~kr (Tree.Node (_, cs) as n) (l, r) =
      let sz = Tree.size n in
      let acc = ((if kl then l + sz else l), if kr then r + sz else r) in
      let last = List.length cs - 1 in
      let _, acc =
        List.fold_left
          (fun (k, acc) c -> (k + 1, go ~kl:(k > 0) ~kr:(k < last) c acc))
          (0, acc) cs
      in
      acc
    in
    go ~kl:true ~kr:true t (0, 0)
  in
  let la, ra = spans a and lb, rb = spans b in
  if la * lb <= ra * rb then la * lb else ra * rb

(* Grafts a copy of one of [t]'s own subtrees back into [t]: as the first
   child of some node (a repeat only the mirrored, right-path direction
   sees as a keyroot), as the last child, at a random position, or as the
   next sibling of a child. Repeated grafts nest repeats inside repeats. *)
let graft rng t =
  let rec subtrees acc (Tree.Node (_, cs) as n) = List.fold_left subtrees (n :: acc) cs in
  let subs = Array.of_list (subtrees [] t) in
  let s = subs.(Prng.int rng (Array.length subs)) in
  let target = Prng.int rng (Array.length subs) and mode = Prng.int rng 4 in
  let k = ref (-1) in
  let rec go (Tree.Node (x, cs)) =
    incr k;
    let here = !k = target in
    let cs = List.map go cs in
    if not here then Tree.Node (x, cs)
    else
      let at = Prng.int rng (List.length cs + 1) in
      let cs =
        match mode with
        | 0 -> s :: cs
        | 1 -> cs @ [ s ]
        | 2 -> List.filteri (fun i _ -> i < at) cs @ (s :: List.filteri (fun i _ -> i >= at) cs)
        | _ -> List.concat (List.mapi (fun i c -> if i = at then [ c; c ] else [ c ]) cs)
      in
      Tree.Node (x, if cs = [] then [ s ] else cs)
  in
  go t

let rec planted rng ~grafts t =
  if grafts = 0 then t
  else
    let t' = graft rng t in
    planted rng ~grafts:(grafts - 1) (if Tree.size t' > 300 then t else t')

let test_flat_planted_repeats () =
  let rng = Prng.create 0x5eed_c0b1 in
  let gen () = planted rng ~grafts:(1 + Prng.int rng 12) (gen_tree_sized rng (1 + Prng.int rng 120)) in
  let iters = max 500 prop_iters and fewer = ref 0 in
  for i = 1 to iters do
    let a = gen () and b = gen () in
    let d = ted a b in
    let fa = Flat.of_tree a and fb = Flat.of_tree b in
    let ab = Flat.distance fa fb and ba = Flat.distance fb fa in
    if ab <> d || ba <> d then
      Alcotest.failf "pair %d (%s vs %s): flat %d / %d (both orders), reference %d" i
        (show_tree a) (show_tree b) ab ba d;
    let cells = Flat.cells fa fb and full = kcost_product a b in
    if cells > full then Alcotest.failf "pair %d: %d cells above the %d without copies" i cells full;
    if cells < full then incr fewer
  done;
  (* the planted repeats must actually be copied, or the test is vacuous *)
  if 10 * !fewer < 9 * iters then
    Alcotest.failf "only %d of %d pairs copied any keyroot" !fewer iters

(* A node with k identical children c = (2 3 4): the root and one c are
   computed in each direction, the other k − 2 keyroot copies of c are
   copied, and the leaf keyroots inside them are skipped. *)
let test_flat_identical_children () =
  let k = 6 in
  let c = node 2 [ leaf 3; leaf 4 ] in
  let t = node 0 (List.init k (fun _ -> c)) in
  let t' = node 0 (List.init k (fun i -> if i = 3 then node 2 [ leaf 3 ] else c)) in
  let fa = Flat.of_tree t and fb = Flat.of_tree t in
  let before = T.ted_snapshot () in
  checki "self distance" 0 (Flat.distance fa fb);
  let diff = T.ted_diff ~before ~after:(T.ted_snapshot ()) in
  checki "one DP" 1 diff.T.dp_runs;
  checki "kcost product without copies" (((7 * k) - 2) * ((7 * k) - 2)) (kcost_product t t);
  checki "dp_cells counts the computed keyroots only" (((3 * k) + 5) * ((3 * k) + 5))
    diff.T.dp_cells;
  checki "cells agrees with the counter" diff.T.dp_cells (Flat.cells fa fb);
  checki "a changed copy" (ted t t') (Flat.distance fa (Flat.of_tree t'))

(* canon_id: stable dense ids, equal trees share one id, and the id keys
   the same canonical view [canon] returns. *)
let test_hashcons_canon_id () =
  let c = Hc.canonizer ~hash:Hashtbl.hash ~equal:Int.equal () in
  let rng = Prng.create 0x0dd_1d5 in
  for i = 1 to max 500 prop_iters do
    let a = gen_tree_sized rng (1 + Prng.int rng 8) in
    let b = gen_tree_sized rng (1 + Prng.int rng 8) in
    let ida, va = Hc.canon_id c a in
    let idb, vb = Hc.canon_id c b in
    let ida', va' = Hc.canon_id c a in
    if ida <> ida' || not (va == va') then
      Alcotest.failf "pair %d: canon_id not stable across calls" i;
    if (ida = idb) <> Tree.equal Int.equal a b then
      Alcotest.failf "pair %d: id equality %b but structural %b" i (ida = idb)
        (Tree.equal Int.equal a b);
    if not (Hc.canon c a == va) then
      Alcotest.failf "pair %d: canon and canon_id views differ" i;
    if (va == vb) <> (ida = idb) then
      Alcotest.failf "pair %d: view sharing disagrees with id equality" i
  done

let prop_custom_costs_scale =
  QCheck.Test.make ~name:"doubled costs double the distance" ~count:100
    (QCheck.pair arb_tree arb_tree)
    (fun (a, b) ->
      let costs =
        {
          Ted.delete = (fun _ -> 2);
          insert = (fun _ -> 2);
          relabel = (fun x y -> if x = y then 0 else 2);
        }
      in
      Ted.distance ~costs ~eq:Int.equal a b = 2 * ted a b)

let () =
  Alcotest.run "tree"
    [
      ( "tree-ops",
        [
          Alcotest.test_case "size/depth" `Quick test_size_depth;
          Alcotest.test_case "traversal orders" `Quick test_orders;
          Alcotest.test_case "map/fold" `Quick test_map_fold;
          Alcotest.test_case "count/exists" `Quick test_count_exists;
          Alcotest.test_case "filter_prune" `Quick test_filter_prune;
          Alcotest.test_case "filter_prune root" `Quick test_filter_prune_root;
          Alcotest.test_case "filter_splice" `Quick test_filter_splice;
          Alcotest.test_case "equal/hash" `Quick test_equal_hash;
          Alcotest.test_case "flatten_forest" `Quick test_flatten_forest;
        ] );
      ( "labels",
        [
          Alcotest.test_case "equality ignores loc" `Quick test_label_equal_ignores_loc;
          Alcotest.test_case "spine" `Quick test_label_spine;
        ] );
      ( "ted-examples",
        [
          Alcotest.test_case "identity" `Quick test_ted_identity;
          Alcotest.test_case "leaf relabel" `Quick test_ted_leaf_relabel;
          Alcotest.test_case "insert/delete" `Quick test_ted_insert_delete;
          Alcotest.test_case "paper figure 1" `Quick test_ted_paper_figure;
          Alcotest.test_case "disjoint labels" `Quick test_ted_disjoint;
          Alcotest.test_case "costs validation" `Quick test_costs_validation;
        ] );
      ( "ted-oracle",
        [
          Alcotest.test_case "seeded suite (>=500 pairs)" `Quick test_oracle_default;
          Alcotest.test_case "long mode (bigger trees)" `Slow test_oracle_long;
          Alcotest.test_case "generated semantic trees (>=500 pairs)" `Slow
            test_oracle_generated;
        ] );
      ( "hashcons",
        [
          Alcotest.test_case "extern (intern t) = t" `Quick test_hashcons_extern_id;
          Alcotest.test_case "Tree.equal iff id equality" `Quick
            test_hashcons_equal_iff_id;
          Alcotest.test_case "TED through canon agrees" `Quick
            test_hashcons_canon_ted_agrees;
          Alcotest.test_case "canon_id stable and shared" `Quick
            test_hashcons_canon_id;
        ] );
      ( "flat-kernel",
        [
          Alcotest.test_case "degenerate shapes" `Quick test_flat_degenerate;
          Alcotest.test_case "strategy on combs" `Quick test_flat_strategy_combs;
          Alcotest.test_case "scratch reuse" `Quick test_flat_scratch_reuse;
          Alcotest.test_case "reserve pre-grows" `Quick test_flat_reserve;
          Alcotest.test_case "planted repeats (>=500 pairs)" `Quick test_flat_planted_repeats;
          Alcotest.test_case "identical children copy" `Quick test_flat_identical_children;
        ] );
      ( "ted-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ted_vs_brute; prop_ted_symmetric;
            prop_ted_identity; prop_ted_bounds; prop_ted_triangle;
            prop_ted_zero_iff_equal; prop_custom_costs_scale;
          ] );
      ( "tree-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_prune_shrinks; prop_splice_preserves_kept_labels;
            prop_size_is_preorder_length ] );
    ]
