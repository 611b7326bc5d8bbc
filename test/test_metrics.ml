(* Tests for Sv_metrics: normalisation, SLOC/LLOC counting, divergence
   primitives, and coverage masking. *)

module N = Sv_metrics.Normalize
module C = Sv_metrics.Counts
module D = Sv_metrics.Divergence
module Cat = Sv_metrics.Catalog
module Tree = Sv_tree.Tree
module Label = Sv_tree.Label

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- normalisation --- *)

let test_c_lines_strip_comments () =
  let lines = N.c_lines ~file:"t" "int x; // trailing\n/* block\n   spans */ int y;\n" in
  Alcotest.(check (list string)) "comments gone" [ "int x;"; "int y;" ] lines

let test_c_lines_collapse_whitespace () =
  Alcotest.(check (list string))
    "collapsed" [ "int x = 1;" ]
    (N.c_lines ~file:"t" "  int    x   =  1;  \n")

let test_c_lines_keep_pragmas () =
  let lines = N.c_lines ~file:"t" "#pragma omp parallel for\nfor (;;) { }\n" in
  checkb "pragma kept" true (List.mem "#pragma omp parallel for" lines)

let test_c_lines_drop_blank () =
  checki "blank lines gone" 2 (List.length (N.c_lines ~file:"t" "int x;\n\n\n\nint y;\n"))

let test_f_lines () =
  let lines = N.f_lines ~file:"t" "x = 1 ! note\n! full comment line\ny = 2\n" in
  Alcotest.(check (list string)) "fortran comments gone" [ "x = 1"; "y = 2" ] lines

let test_f_lines_keep_directives () =
  let lines = N.f_lines ~file:"t" "!$omp parallel do\ndo i = 1, n\nend do\n" in
  checkb "sentinel kept" true (List.mem "!$omp parallel do" lines)

let test_pp_lines () =
  let toks =
    (Sv_lang_c.Preproc.run ~resolve:(fun _ -> None) ~defines:[] ~file:"t"
       "#define N 4\nint x = N; int y = 2;\n").Sv_lang_c.Preproc.tokens
  in
  let lines = N.c_lines_of_tokens toks in
  checkb "statement split" true (List.length lines >= 2);
  checkb "macro body expanded" true
    (List.exists (fun l -> String.length l >= 1 && String.contains l '4') lines)

(* --- counts --- *)

let lex src = Sv_lang_c.Token.lex ~file:"t" src

let test_sloc () =
  checki "sloc counts normalised lines" 2 (C.sloc_of_lines (N.c_lines ~file:"t" "int x;\n// c\nint y;\n"))

let test_lloc_for_header_is_one () =
  (* the formatted and one-line variants agree: LLOC is layout-blind *)
  let a = C.lloc_c (lex "for (int i = 0; i < n; i++) { f(i); }") in
  let b = C.lloc_c (lex "for (int i = 0;\n     i < n;\n     i++) {\n  f(i);\n}") in
  checki "layout blind" a b;
  checki "for+call" 2 a

let test_lloc_counts () =
  checki "decl + if + return" 3 (C.lloc_c (lex "int f() { int x = 1; if (x) { return x; } }"));
  checki "pragma counts" 1 (C.lloc_c (lex "#pragma omp barrier\n"))

let test_lloc_f () =
  checki "three statements" 3
    (C.lloc_f (Sv_lang_f.Token.lex ~file:"t" "x = 1\ny = 2\nz = 3\n"));
  checki "directive counts, comment does not" 2
    (C.lloc_f (Sv_lang_f.Token.lex ~file:"t" "!$omp parallel do\n! comment\nx = 1\n"))

(* --- divergence primitives --- *)

let test_source_distance () =
  checki "identical" 0 (D.source_distance [ "a"; "b" ] [ "a"; "b" ]);
  checki "one line changed" 2 (D.source_distance [ "a"; "b" ] [ "a"; "c" ]);
  checki "line added" 1 (D.source_distance [ "a" ] [ "a"; "b" ])

let test_normalised () =
  checkf "zero" 0.0 (D.normalised ~d:0 ~dmax:10);
  checkf "clamped" 1.0 (D.normalised ~d:25 ~dmax:10);
  checkf "ratio" 0.5 (D.normalised ~d:5 ~dmax:10);
  checkf "dmax zero, d zero" 0.0 (D.normalised ~d:0 ~dmax:0);
  checkf "dmax zero, d nonzero" 1.0 (D.normalised ~d:3 ~dmax:0)

let test_tree_distance_labels () =
  let t text = Tree.leaf (Label.v ~text "k") in
  checki "same" 0 (D.tree_distance (t "a") (t "a"));
  checki "text differs" 1 (D.tree_distance (t "a") (t "b"))

(* Equality is decided by intern id in the divergence layer, before the
   flat kernel is called; the kernel itself only short-cuts physically
   equal flats, so two compiles of one tree go through the DP. *)
let test_equality_shortcut () =
  let module T = Sv_perf.Telemetry in
  let build file =
    let l kind = Label.v ~loc:(Sv_util.Loc.make ~file ~line:1 ~col:0) kind in
    Tree.node (l "fn") [ Tree.leaf (l "decl"); Tree.node (l "loop") [ Tree.leaf (l "call") ] ]
  in
  let a = build "a.cpp" and b = build "b.cpp" in
  checkb "separately built" false (a == b);
  let before = T.ted_snapshot () in
  checki "equal trees at distance 0" 0 (D.tree_distance a b);
  let diff = T.ted_diff ~before ~after:(T.ted_snapshot ()) in
  checki "one equal prune" 1 diff.T.equal_prunes;
  checki "no DP" 0 diff.T.dp_runs;
  let int_tree = D.canon a in
  let fa = Sv_tree.Flat.of_tree int_tree and fb = Sv_tree.Flat.of_tree int_tree in
  let before = T.ted_snapshot () in
  checki "two compiles of one tree at distance 0" 0 (Sv_tree.Flat.distance fa fb);
  let diff = T.ted_diff ~before ~after:(T.ted_snapshot ()) in
  checki "no equal prune in Flat" 0 diff.T.equal_prunes;
  checki "one DP" 1 diff.T.dp_runs

let test_mask_tree () =
  let mk line kind =
    Label.v ~loc:(Sv_util.Loc.make ~file:"f" ~line ~col:0) kind
  in
  let tree = Tree.node (mk 1 "root") [ Tree.leaf (mk 2 "live"); Tree.leaf (mk 3 "dead") ] in
  let cov = Sv_util.Coverage.create () in
  Sv_util.Coverage.hit cov ~file:"f" ~line:2;
  let masked = D.mask_tree cov tree in
  checkb "live kept" true (Tree.exists (fun l -> l.Label.kind = "live") masked);
  checkb "dead pruned" false (Tree.exists (fun l -> l.Label.kind = "dead") masked);
  (* the root's own line never executed, but it is an ancestor of live
     code and must survive *)
  checkb "container root kept" true (Tree.exists (fun l -> l.Label.kind = "root") masked)

let test_mask_tree_root_survives () =
  let cov = Sv_util.Coverage.create () in
  Sv_util.Coverage.hit cov ~file:"f" ~line:99;
  let dead_root =
    Tree.leaf (Label.v ~loc:(Sv_util.Loc.make ~file:"f" ~line:1 ~col:0) "root")
  in
  checki "degenerates to root" 1 (Tree.size (D.mask_tree cov dead_root))

(* --- matched decomposition & structure --- *)

let gen_label_tree =
  QCheck.Gen.(
    sized_size (int_bound 10) (fix (fun self n ->
        let lbl = map (fun k -> Label.v ("k" ^ string_of_int k)) (int_bound 4) in
        if n = 0 then map Tree.leaf lbl
        else map2 Tree.node lbl (list_size (int_bound 3) (self (n / 2))))))

let arb_label_tree = QCheck.make gen_label_tree

let prop_matched_upper_bound =
  QCheck.Test.make ~name:"matched decomposition bounds exact TED from above" ~count:200
    (QCheck.pair arb_label_tree arb_label_tree)
    (fun (a, b) -> D.tree_distance_matched a b >= D.tree_distance a b)

let prop_matched_self_zero =
  QCheck.Test.make ~name:"matched decomposition of a tree with itself is 0" ~count:200
    arb_label_tree
    (fun t -> D.tree_distance_matched t t = 0)

let test_structure_coupling () =
  let c =
    Sv_metrics.Structure.coupling_of_deps ~root:"main.cpp"
      [ ("main.cpp", [ "a.h"; "b.h" ]); ("a.h", [ "b.h" ]) ]
  in
  checki "files" 3 c.Sv_metrics.Structure.files;
  checki "edges" 3 c.Sv_metrics.Structure.edges;
  checkb "ratio" true (Float.abs (c.Sv_metrics.Structure.coupling_ratio -. 0.5) < 1e-9)

let test_structure_coupling_isolated () =
  let c = Sv_metrics.Structure.coupling_of_deps ~root:"only.cpp" [ ("only.cpp", []) ] in
  checki "one file" 1 c.Sv_metrics.Structure.files;
  checkb "zero ratio" true (c.Sv_metrics.Structure.coupling_ratio = 0.0)

let test_structure_complexity () =
  let t =
    Tree.node (Label.v "root")
      [ Tree.leaf (Label.v "a"); Tree.node (Label.v "b") [ Tree.leaf (Label.v "a") ] ]
  in
  let c = Sv_metrics.Structure.complexity t in
  checki "size" 4 c.Sv_metrics.Structure.size;
  checki "depth" 3 c.Sv_metrics.Structure.depth;
  checki "leaves" 2 c.Sv_metrics.Structure.leaves;
  checkb "entropy positive" true (c.Sv_metrics.Structure.branching_entropy > 0.0);
  (* a uniform-kind tree has zero entropy *)
  let flat = Tree.node (Label.v "x") [ Tree.leaf (Label.v "x"); Tree.leaf (Label.v "x") ] in
  checkb "uniform entropy zero" true
    (Float.abs (Sv_metrics.Structure.complexity flat).Sv_metrics.Structure.branching_entropy
     < 1e-9)

(* --- catalog --- *)

let test_catalog_table1 () =
  checki "seven rows" 7 (List.length Cat.all);
  let names = List.map (fun (e : Cat.entry) -> e.Cat.name) Cat.all in
  Alcotest.(check (list string)) "paper order"
    [ "SLOC"; "LLOC"; "Source"; "T_src"; "T_sem"; "T_ir"; "Performance" ]
    names;
  let tsem = List.find (fun (e : Cat.entry) -> e.Cat.name = "T_sem") Cat.all in
  checkb "tsem has inlining variant" true (List.mem "+inlining" tsem.Cat.variants)

let () =
  Alcotest.run "metrics"
    [
      ( "normalise",
        [
          Alcotest.test_case "strip comments" `Quick test_c_lines_strip_comments;
          Alcotest.test_case "collapse whitespace" `Quick test_c_lines_collapse_whitespace;
          Alcotest.test_case "keep pragmas" `Quick test_c_lines_keep_pragmas;
          Alcotest.test_case "drop blanks" `Quick test_c_lines_drop_blank;
          Alcotest.test_case "fortran lines" `Quick test_f_lines;
          Alcotest.test_case "fortran directives kept" `Quick test_f_lines_keep_directives;
          Alcotest.test_case "preprocessed lines" `Quick test_pp_lines;
        ] );
      ( "counts",
        [
          Alcotest.test_case "sloc" `Quick test_sloc;
          Alcotest.test_case "lloc layout-blind" `Quick test_lloc_for_header_is_one;
          Alcotest.test_case "lloc counts" `Quick test_lloc_counts;
          Alcotest.test_case "lloc fortran" `Quick test_lloc_f;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "source distance" `Quick test_source_distance;
          Alcotest.test_case "normalisation" `Quick test_normalised;
          Alcotest.test_case "tree labels" `Quick test_tree_distance_labels;
          Alcotest.test_case "equality by intern id" `Quick test_equality_shortcut;
          Alcotest.test_case "coverage mask" `Quick test_mask_tree;
          Alcotest.test_case "mask root survives" `Quick test_mask_tree_root_survives;
        ] );
      ( "structure",
        [
          Alcotest.test_case "coupling" `Quick test_structure_coupling;
          Alcotest.test_case "coupling isolated" `Quick test_structure_coupling_isolated;
          Alcotest.test_case "complexity" `Quick test_structure_complexity;
        ] );
      ( "catalog",
        [ Alcotest.test_case "table 1 contents" `Quick test_catalog_table1 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_matched_upper_bound; prop_matched_self_zero ] );
    ]
