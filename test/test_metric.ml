(* Property suite for the metric layer: VP-tree k-NN queries against
   brute force. Everything is Prng-seeded (SV_PROP_ITERS scales the
   volume), so a failure reports a reproducible case. *)

module Tree = Sv_tree.Tree
module Flat = Sv_tree.Flat
module Vptree = Sv_metric.Vptree
module Prng = Sv_util.Prng

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

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

(* --- VP-tree ---------------------------------------------------------- *)

let make_points rng n max_nodes =
  Array.init n (fun _ -> gen_tree_sized rng (1 + Prng.int rng max_nodes))

let test_vptree_vs_brute () =
  let rng = Prng.create 0x7b7_ee5 in
  let n = max 500 prop_iters in
  let points = make_points rng n 10 in
  let flats = Array.map Flat.of_tree points in
  let dist i j = Flat.distance flats.(i) flats.(j) in
  let t = Vptree.build ~dist (Array.init n (fun i -> i)) in
  checki "size" n (Vptree.size t);
  for q = 0 to 49 do
    let query = Flat.of_tree (gen_tree_sized rng (1 + Prng.int rng 10)) in
    let dist id = Flat.distance query flats.(id) in
    let brute = List.sort compare (List.init n (fun i -> (dist i, i))) in
    let k = 7 in
    let knn, ledger = Vptree.nearest ~dist ~k t in
    let brute_k = List.filteri (fun i _ -> i < k) brute in
    if knn <> brute_k then
      Alcotest.failf "query %d: k-NN differs from brute force" q;
    checkb "k-NN ledger exact" true ledger.Vptree.guaranteed_exact;
    checkb "k-NN evals bounded by n" true (ledger.Vptree.evals <= n)
  done

(* Phase 2: the plain-data representation round-trips to a tree with
   byte-identical query behaviour, and mangled reprs are rejected (or at
   worst decode to a tree — never crash). *)
let test_vptree_repr_roundtrip () =
  let rng = Prng.create 0x4e9a_11 in
  let n = 200 in
  let points = make_points rng n 10 in
  let flats = Array.map Flat.of_tree points in
  let dist i j = Flat.distance flats.(i) flats.(j) in
  let t = Vptree.build ~dist (Array.init n (fun i -> i)) in
  let repr = Vptree.to_repr t in
  (match Vptree.of_repr repr with
  | None -> Alcotest.fail "of_repr rejected its own to_repr"
  | Some t' ->
      checki "size survives" (Vptree.size t) (Vptree.size t');
      checki "decoded build_evals is zero" 0 (Vptree.build_evals t');
      for q = 0 to 19 do
        let query = Flat.of_tree (gen_tree_sized rng (1 + Prng.int rng 10)) in
        let dist id = Flat.distance query flats.(id) in
        let h1, e1 = Vptree.nearest ~dist ~k:5 t in
        let h2, e2 = Vptree.nearest ~dist ~k:5 t' in
        if h1 <> h2 || e1 <> e2 then
          Alcotest.failf "query %d: decoded tree differs (hits or evals)" q
      done);
  (* truncations never crash; most are rejected outright *)
  for cut = 0 to min 40 (Array.length repr - 1) do
    ignore (Vptree.of_repr (Array.sub repr 0 cut))
  done;
  checkb "empty repr rejected" true (Vptree.of_repr [||] = None);
  (* bit flips in the header/bookkeeping words never crash *)
  for _ = 1 to 200 do
    let mangled = Array.copy repr in
    let i = Prng.int rng (Array.length mangled) in
    mangled.(i) <- mangled.(i) lxor (1 lsl Prng.int rng 30);
    ignore (Vptree.of_repr mangled)
  done;
  (* duplicate ids are structural corruption and must be rejected *)
  let dup = Vptree.to_repr (Vptree.build ~dist:(fun _ _ -> 1) [| 1; 2; 3 |]) in
  (* leaf of [1;2;3]: words are [n; 0; len; 1; 2; 3] *)
  dup.(4) <- 1;
  checkb "duplicate ids rejected" true (Vptree.of_repr dup = None);
  (* a build never puts more than leaf_cap = 4 ids in a leaf, so a
     fifth id is corruption even with consistent bookkeeping *)
  let full = Vptree.to_repr (Vptree.build ~dist:(fun _ _ -> 1) [| 1; 2; 3; 4 |]) in
  checkb "full leaf accepted" true (Vptree.of_repr full <> None);
  (* words [n; 0; len; ids…]: one more id, with n and len to match *)
  let over = Array.append full [| 5 |] in
  over.(0) <- 5;
  over.(2) <- 5;
  checkb "leaf over leaf_cap rejected" true (Vptree.of_repr over = None)

(* Phase 2: the budgeted best-first mode. Unconstrained it must equal
   brute force with an exact ledger; any run whose ledger still claims
   exactness must in fact be brute-force-equal; ε runs must honour the
   per-rank multiplicative guarantee. *)
let test_vptree_budgeted () =
  let rng = Prng.create 0xb4d_6e7 in
  let n = max 400 prop_iters in
  let points = make_points rng n 10 in
  let flats = Array.map Flat.of_tree points in
  let dist i j = Flat.distance flats.(i) flats.(j) in
  let t = Vptree.build ~dist (Array.init n (fun i -> i)) in
  let k = 7 in
  for q = 0 to 29 do
    let query = Flat.of_tree (gen_tree_sized rng (1 + Prng.int rng 10)) in
    let dist id = Flat.distance query flats.(id) in
    let brute = List.sort compare (List.init n (fun i -> (dist i, i))) in
    let brute_k = List.filteri (fun i _ -> i < k) brute in
    (* unconstrained: exact, and says so *)
    let hits, ledger = Vptree.nearest ~dist ~k t in
    if hits <> brute_k then
      Alcotest.failf "query %d: unconstrained k-NN not brute" q;
    checkb "unconstrained ledger exact" true ledger.Vptree.guaranteed_exact;
    let exact_evals = ledger.Vptree.evals in
    (* honesty across the budget sweep: exact claim implies brute
       equality, and the unconstrained eval count must be reachable
       (ledger claims exact) once the budget covers it *)
    List.iter
      (fun budget ->
        let hits_b, lb = Vptree.nearest ~dist ~k ~budget t in
        checkb "budget respected" true (lb.Vptree.evals <= max budget 0);
        if budget >= exact_evals && not lb.Vptree.guaranteed_exact then
          Alcotest.failf
            "query %d: budget %d covers the exact search (%d evals) yet \
             ledger claims approximate" q budget exact_evals;
        if lb.Vptree.guaranteed_exact && hits_b <> brute_k then
          Alcotest.failf
            "query %d: budget %d claims exact but differs from brute" q budget;
        if budget >= n && not lb.Vptree.guaranteed_exact then
          Alcotest.failf
            "query %d: budget %d >= n yet ledger claims approximate" q budget)
      [ 0; 1; n / 20; n / 4; exact_evals; n; 10 * n ];
    (* ε guarantee: every returned rank within (1+ε) of the true rank *)
    List.iter
      (fun epsilon ->
        let hits_e, le = Vptree.nearest ~dist ~k ~epsilon t in
        checki "ε returns k hits" (min k n) (List.length hits_e);
        List.iteri
          (fun i (d, _) ->
            let true_d = fst (List.nth brute i) in
            if float_of_int d > ((1. +. epsilon) *. float_of_int true_d) +. 1e-9
            then
              Alcotest.failf
                "query %d: ε=%.2f rank %d distance %d exceeds (1+ε)·%d" q
                epsilon i d true_d)
          hits_e;
        if le.Vptree.guaranteed_exact && hits_e <> brute_k then
          Alcotest.failf "query %d: ε=%.2f claims exact but differs" q epsilon)
      [ 0.25; 1.0 ]
  done

let test_vptree_degenerate () =
  (* single element, and k larger than the population *)
  let dist _ _ = 0 in
  let t = Vptree.build ~dist [| 3 |] in
  let dq _ = 0 in
  let hits, _ = Vptree.nearest ~dist:dq ~k:5 t in
  checkb "k > n returns everything" true (hits = [ (0, 3) ]);
  let empty = Vptree.build ~dist [||] in
  let hits, ledger = Vptree.nearest ~dist:dq ~k:3 empty in
  checkb "empty index" true (hits = [] && ledger.Vptree.evals = 0)

let () =
  Alcotest.run "sv_metric"
    [
      ( "vptree",
        [
          Alcotest.test_case "k-NN equals brute force" `Quick
            test_vptree_vs_brute;
          Alcotest.test_case "repr round-trip and corruption" `Quick
            test_vptree_repr_roundtrip;
          Alcotest.test_case "budgeted mode honest and bounded" `Quick
            test_vptree_budgeted;
          Alcotest.test_case "degenerate shapes" `Quick test_vptree_degenerate;
        ] );
    ]
