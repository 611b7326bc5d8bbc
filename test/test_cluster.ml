(* Tests for Sv_cluster: matrix helpers, agglomerative clustering
   correctness on known inputs, and structural properties (ultrametric
   cophenetic matrices, leaf preservation). *)

module C = Sv_cluster.Cluster

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let sym labels data = { C.labels = Array.of_list labels; data }

(* two tight pairs far apart: (a,b) close, (c,d) close *)
let two_pairs =
  sym [ "a"; "b"; "c"; "d" ]
    [|
      [| 0.0; 1.0; 10.0; 10.0 |];
      [| 1.0; 0.0; 10.0; 10.0 |];
      [| 10.0; 10.0; 0.0; 2.0 |];
      [| 10.0; 10.0; 2.0; 0.0 |];
    |]

let test_of_fn () =
  let m = C.of_fn [| "x"; "y" |] (fun i j -> float_of_int (i + (2 * j))) in
  checkf "cell" 2.0 m.C.data.(0).(1);
  checkf "asymmetric ok" 1.0 m.C.data.(1).(0)

let test_row_euclidean () =
  let m = sym [ "x"; "y" ] [| [| 0.0; 3.0 |]; [| 4.0; 0.0 |] |] in
  let d = C.row_euclidean m in
  checkf "3-4-5 triangle" 5.0 d.C.data.(0).(1);
  checkf "diagonal zero" 0.0 d.C.data.(0).(0);
  checkf "symmetric" d.C.data.(0).(1) d.C.data.(1).(0)

(* byte-level rendering of a matrix: the symmetric fast paths must be
   indistinguishable from the naive full tabulation, not merely close *)
let render (m : C.matrix) =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
          m.C.data))

let test_of_fn_symmetric_identical () =
  let labels = Array.init 9 string_of_int in
  let f i j =
    (* symmetric, irrational-ish values so mirroring bugs can't hide *)
    sqrt (float_of_int (((i + 1) * (j + 1)) + ((i - j) * (i - j))))
  in
  let full = C.of_fn labels f in
  let half = C.of_fn ~symmetric:true labels f in
  Alcotest.(check string) "byte-identical" (render full) (render half)

let test_of_fn_symmetric_eval_count () =
  let n = 10 in
  let calls = ref 0 in
  let f i j =
    incr calls;
    float_of_int (i * j)
  in
  let (_ : C.matrix) = C.of_fn ~symmetric:true (Array.init n string_of_int) f in
  checki "one call per unordered pair" (n * (n + 1) / 2) !calls;
  calls := 0;
  let (_ : C.matrix) = C.of_fn (Array.init n string_of_int) f in
  checki "asymmetric still tabulates everything" (n * n) !calls

let test_row_euclidean_triangle_identical () =
  (* differential test against the naive all-pairs definition *)
  let rng = Random.State.make [| 0x5eed |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 8 in
    let m =
      {
        C.labels = Array.init n string_of_int;
        data =
          Array.init n (fun _ ->
              Array.init n (fun _ -> Random.State.float rng 100.0));
      }
    in
    let dist i j =
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        let d = m.C.data.(i).(k) -. m.C.data.(j).(k) in
        s := !s +. (d *. d)
      done;
      sqrt !s
    in
    let naive =
      {
        C.labels = m.C.labels;
        data = Array.init n (fun i -> Array.init n (fun j -> dist i j));
      }
    in
    Alcotest.(check string)
      "byte-identical to naive all-pairs" (render naive)
      (render (C.row_euclidean m))
  done

let test_cluster_pairs_first () =
  let d = C.cluster C.Complete two_pairs in
  match d with
  | C.Merge (left, right, h) ->
      let set t = List.sort compare (C.leaves t) in
      checkb "pairs formed" true
        ((set left = [ 0; 1 ] && set right = [ 2; 3 ])
        || (set left = [ 2; 3 ] && set right = [ 0; 1 ]));
      checkf "final height is the complete-linkage max" 10.0 h
  | C.Leaf _ -> Alcotest.fail "expected a merge"

let test_linkage_heights_differ () =
  (* chain 0-1-2 with d(0,1)=1, d(1,2)=1, d(0,2)=4 *)
  let m =
    sym [ "a"; "b"; "c" ]
      [| [| 0.0; 1.0; 4.0 |]; [| 1.0; 0.0; 1.0 |]; [| 4.0; 1.0; 0.0 |] |]
  in
  let top = function C.Merge (_, _, h) -> h | C.Leaf _ -> 0.0 in
  checkf "single joins at 1" 1.0 (top (C.cluster C.Single m));
  checkf "complete joins at 4" 4.0 (top (C.cluster C.Complete m));
  checkf "average between" 2.5 (top (C.cluster C.Average m))

let test_leaves_complete () =
  let d = C.cluster C.Complete two_pairs in
  Alcotest.(check (list int)) "all leaves once" [ 0; 1; 2; 3 ]
    (List.sort compare (C.leaves d))

let test_singleton () =
  let m = sym [ "only" ] [| [| 0.0 |] |] in
  checkb "single leaf" true (C.cluster C.Complete m = C.Leaf 0)

let test_empty_rejected () =
  let m = sym [] [||] in
  checkb "rejects empty" true
    (match C.cluster C.Complete m with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cut () =
  let d = C.cluster C.Complete two_pairs in
  let clusters = C.cut d 5.0 in
  checki "two clusters at h=5" 2 (List.length clusters);
  let all = List.sort compare (List.concat clusters) in
  Alcotest.(check (list int)) "partition" [ 0; 1; 2; 3 ] all;
  checki "one cluster above the top" 1 (List.length (C.cut d 100.0));
  checki "four clusters below all merges" 4 (List.length (C.cut d 0.5))

let test_merge_heights_sorted () =
  let hs = C.merge_heights (C.cluster C.Complete two_pairs) in
  checkb "ascending" true (hs = List.sort compare hs);
  checki "n-1 merges" 3 (List.length hs)

let test_cophenetic_known () =
  let d = C.cluster C.Complete two_pairs in
  let coph = C.cophenetic d 4 in
  checkf "pair height" 1.0 coph.(0).(1);
  checkf "cross-pair height" 10.0 coph.(0).(2);
  checkf "symmetric" coph.(2).(0) coph.(0).(2)

(* random symmetric distance matrix *)
let gen_matrix =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    list_size (return (n * n)) (float_bound_inclusive 100.0) >|= fun vals ->
    let a = Array.of_list vals in
    let data =
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i = j then 0.0
              else
                let lo = min i j and hi = max i j in
                1.0 +. a.((lo * n) + hi)))
    in
    { C.labels = Array.init n (fun i -> string_of_int i); data })

let arb_matrix = QCheck.make gen_matrix

let prop_cophenetic_ultrametric =
  QCheck.Test.make ~name:"cophenetic matrix is ultrametric" ~count:200 arb_matrix
    (fun m ->
      let n = Array.length m.C.labels in
      let coph = C.cophenetic (C.cluster C.Complete m) n in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if coph.(i).(j) > Float.max coph.(i).(k) coph.(k).(j) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let prop_leaves_partition =
  QCheck.Test.make ~name:"dendrogram leaves are a permutation" ~count:200 arb_matrix
    (fun m ->
      let n = Array.length m.C.labels in
      List.sort compare (C.leaves (C.cluster C.Complete m)) = List.init n Fun.id)

let prop_single_le_complete =
  QCheck.Test.make ~name:"single-linkage top height <= complete" ~count:200 arb_matrix
    (fun m ->
      let top l =
        match C.cluster l m with C.Merge (_, _, h) -> h | C.Leaf _ -> 0.0
      in
      top C.Single <= top C.Complete +. 1e-9)

let () =
  Alcotest.run "cluster"
    [
      ( "examples",
        [
          Alcotest.test_case "of_fn" `Quick test_of_fn;
          Alcotest.test_case "row euclidean" `Quick test_row_euclidean;
          Alcotest.test_case "of_fn symmetric identical" `Quick
            test_of_fn_symmetric_identical;
          Alcotest.test_case "of_fn symmetric eval count" `Quick
            test_of_fn_symmetric_eval_count;
          Alcotest.test_case "row euclidean vs naive" `Quick
            test_row_euclidean_triangle_identical;
          Alcotest.test_case "pairs cluster first" `Quick test_cluster_pairs_first;
          Alcotest.test_case "linkage heights" `Quick test_linkage_heights_differ;
          Alcotest.test_case "leaves" `Quick test_leaves_complete;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "cut" `Quick test_cut;
          Alcotest.test_case "merge heights" `Quick test_merge_heights_sorted;
          Alcotest.test_case "cophenetic" `Quick test_cophenetic_known;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cophenetic_ultrametric; prop_leaves_partition; prop_single_le_complete ] );
    ]
