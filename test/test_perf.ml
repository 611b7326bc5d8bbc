(* Tests for Sv_perf: Φ arithmetic, the efficiency/support model's
   qualitative facts, cascades, and determinism. *)

module P = Sv_perf.Platform
module M = Sv_perf.Pmodel
module E = Sv_perf.Efficiency
module Phi = Sv_perf.Phi
module Cascade = Sv_perf.Cascade

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)
let app = M.tealeaf

(* --- phi arithmetic --- *)

let test_phi_harmonic_mean () =
  checkf "equal efficiencies" 0.5 (Phi.phi [ Some 0.5; Some 0.5 ]);
  checkf "harmonic of 1 and 0.5" (2.0 /. 3.0) (Phi.phi [ Some 1.0; Some 0.5 ]);
  checkf "single" 0.8 (Phi.phi [ Some 0.8 ])

let test_phi_zero_cases () =
  checkf "unsupported platform zeroes phi" 0.0 (Phi.phi [ Some 0.9; None ]);
  checkf "empty set" 0.0 (Phi.phi []);
  checkf "non-positive" 0.0 (Phi.phi [ Some 0.9; Some 0.0 ])

let prop_phi_between_min_max =
  QCheck.Test.make ~name:"phi lies between min and max efficiency" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range 0.01 1.0))
    (fun effs ->
      let phi = Phi.phi (List.map (fun e -> Some e) effs) in
      let mn = List.fold_left Float.min 1.0 effs in
      let mx = List.fold_left Float.max 0.0 effs in
      phi >= mn -. 1e-9 && phi <= mx +. 1e-9)

let prop_phi_le_arithmetic_mean =
  QCheck.Test.make ~name:"harmonic mean <= arithmetic mean" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range 0.01 1.0))
    (fun effs ->
      let phi = Phi.phi (List.map (fun e -> Some e) effs) in
      let am = List.fold_left ( +. ) 0.0 effs /. float_of_int (List.length effs) in
      phi <= am +. 1e-9)

(* --- the support/efficiency model --- *)

let test_first_party_support () =
  checkb "cuda only on nvidia" true (E.base M.cuda P.h100 <> None);
  checkb "cuda not on amd gpu" true (E.base M.cuda P.mi250x = None);
  checkb "cuda not on cpu" true (E.base M.cuda P.spr = None);
  checkb "hip on amd" true (E.base M.hip P.mi250x <> None);
  checkb "hip on nvidia too" true (E.base M.hip P.h100 <> None);
  checkb "hip not on intel gpu" true (E.base M.hip P.pvc = None)

let test_host_only_models () =
  List.iter
    (fun p ->
      checkb "omp on cpu" true (E.base M.omp p <> None);
      checkb "tbb on cpu" true (E.base M.tbb p <> None))
    [ P.spr; P.milan; P.g3e ];
  List.iter
    (fun p ->
      checkb "omp not on gpu" true (E.base M.omp p = None);
      checkb "tbb not on gpu" true (E.base M.tbb p = None))
    [ P.h100; P.mi250x; P.pvc ]

let test_portable_models_everywhere () =
  List.iter
    (fun p ->
      checkb "kokkos everywhere" true (E.base M.kokkos p <> None);
      checkb "sycl everywhere" true (E.base M.sycl_usm p <> None);
      checkb "omp-target everywhere" true (E.base M.omp_target p <> None))
    P.all

let test_vendor_peaks () =
  let eff m p = Option.get (E.efficiency ~app m p) in
  checkb "cuda best on h100" true
    (List.for_all
       (fun m -> m.M.id = "cuda" || eff M.cuda P.h100 >= eff m P.h100 -. 1e-9)
       (List.filter (fun m -> E.base m P.h100 <> None) M.all_parallel));
  checkb "sycl-acc best on pvc" true
    (List.for_all
       (fun m -> m.M.id = "sycl-acc" || eff M.sycl_acc P.pvc >= eff m P.pvc -. 1e-9)
       (List.filter (fun m -> E.base m P.pvc <> None) M.all_parallel))

let test_efficiency_deterministic () =
  List.iter
    (fun m ->
      List.iter
        (fun p ->
          checkb "repeatable" true (E.efficiency ~app m p = E.efficiency ~app m p))
        P.all)
    M.all_parallel

let test_efficiency_in_range () =
  List.iter
    (fun m ->
      List.iter
        (fun p ->
          match E.efficiency ~app m p with
          | None -> ()
          | Some e -> checkb "in (0,1]" true (e > 0.0 && e <= 1.0))
        P.all)
    M.all_parallel

let test_runtime_scales_with_work () =
  let small = { app with M.cells = 1e6 } and big = { app with M.cells = 4e6 } in
  let t size = Option.get (E.runtime_s ~app:size M.omp P.spr) in
  checkf "4x cells = 4x runtime" (4.0 *. t small) (t big)

(* --- app efficiency & cascade --- *)

let test_app_efficiency_normalised () =
  let models = M.all_parallel in
  List.iter
    (fun p ->
      let effs = List.filter_map (fun m -> Phi.app_efficiency ~app ~models m p) models in
      checkb "all within (0,1]" true (List.for_all (fun e -> e > 0.0 && e <= 1.0) effs);
      checkb "per-platform winner at 1.0" true
        (List.exists (fun e -> Float.abs (e -. 1.0) < 1e-9) effs))
    P.all

let test_cascade_shapes () =
  let series = Cascade.cascade ~app ~models:M.all_parallel ~platforms:P.all in
  Alcotest.(check int) "one series per model" (List.length M.all_parallel)
    (List.length series);
  List.iter
    (fun (s : Cascade.series) ->
      Alcotest.(check int) "full platform coverage" (List.length P.all)
        (List.length s.Cascade.ordered);
      (* Φ series is non-increasing: platforms arrive best-first *)
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
        | _ -> true
      in
      checkb "phi series non-increasing" true (non_increasing s.Cascade.phi_series);
      checkf "series ends at final phi"
        (List.nth s.Cascade.phi_series (List.length s.Cascade.phi_series - 1))
        s.Cascade.final_phi)
    series

let test_cascade_cuda_crashes () =
  let series = Cascade.cascade ~app ~models:M.all_parallel ~platforms:P.all in
  let cuda = List.find (fun s -> s.Cascade.model.M.id = "cuda") series in
  checkf "cuda final phi zero" 0.0 cuda.Cascade.final_phi;
  checkb "cuda starts at 1.0 (its own platform)" true
    (match cuda.Cascade.phi_series with v :: _ -> v > 0.99 | [] -> false)

let test_cascade_kokkos_survives () =
  let series = Cascade.cascade ~app ~models:M.all_parallel ~platforms:P.all in
  let kokkos = List.find (fun s -> s.Cascade.model.M.id = "kokkos") series in
  checkb "kokkos keeps nonzero phi" true (kokkos.Cascade.final_phi > 0.5)

(* --- telemetry ------------------------------------------------------- *)

module T = Sv_perf.Telemetry

let test_telemetry_reset_and_diff () =
  T.reset_ted ();
  let before = T.ted_snapshot () in
  T.ted.T.equal_prunes <- T.ted.T.equal_prunes + 3;
  T.ted.T.dp_runs <- T.ted.T.dp_runs + 2;
  T.ted.T.dp_cells <- T.ted.T.dp_cells + 40;
  T.ted.T.strategy_right <- T.ted.T.strategy_right + 1;
  let diff = T.ted_diff ~before ~after:(T.ted_snapshot ()) in
  checki "diff equal_prunes" 3 diff.T.equal_prunes;
  checki "diff dp_runs" 2 diff.T.dp_runs;
  checki "diff dp_cells" 40 diff.T.dp_cells;
  checki "diff strategy_right" 1 diff.T.strategy_right;
  checki "untouched counter" 0 diff.T.flat_compiles;
  checki "pruned total" 3 (T.ted_pruned diff);
  (* the snapshot is an independent copy, not an alias *)
  let snap = T.ted_snapshot () in
  T.ted.T.equal_prunes <- 0;
  checki "snapshot survives later writes" 3 snap.T.equal_prunes;
  T.reset_ted ();
  checki "reset zeroes" 0 (T.ted_pruned (T.ted_snapshot ()));
  checki "reset zeroes dp_runs" 0 T.ted.T.dp_runs;
  checki "reset zeroes dp_cells" 0 T.ted.T.dp_cells

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_telemetry_rows_and_string () =
  T.reset_ted ();
  T.ted.T.equal_prunes <- 5;
  T.ted.T.dp_runs <- 7;
  T.ted.T.dp_cells <- 4321;
  let rows = T.ted_rows (T.ted_snapshot ()) in
  checki "rows cover every counter" 7 (List.length rows);
  checkb "equal prunes row carries its value" true
    (List.exists (fun (k, v) -> v = 5 && contains k "equal") rows);
  checkb "DP cells row carries its value" true (List.mem ("DP cells", 4321) rows);
  let s = T.ted_to_string (T.ted_snapshot ()) in
  checkb "summary counts pairs settled without a DP" true
    (contains s "ted: 5 of 12 pairs settled without a DP (equal 5)");
  checkb "summary mentions DP runs and their cells" true
    (contains s "7 DP runs (4321 cells)");
  T.reset_ted ()

let () =
  Alcotest.run "perf"
    [
      ( "phi",
        [
          Alcotest.test_case "harmonic mean" `Quick test_phi_harmonic_mean;
          Alcotest.test_case "zero cases" `Quick test_phi_zero_cases;
        ] );
      ( "efficiency-model",
        [
          Alcotest.test_case "first-party support" `Quick test_first_party_support;
          Alcotest.test_case "host-only models" `Quick test_host_only_models;
          Alcotest.test_case "portable models" `Quick test_portable_models_everywhere;
          Alcotest.test_case "vendor peaks" `Quick test_vendor_peaks;
          Alcotest.test_case "deterministic" `Quick test_efficiency_deterministic;
          Alcotest.test_case "range" `Quick test_efficiency_in_range;
          Alcotest.test_case "runtime scaling" `Quick test_runtime_scales_with_work;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "app efficiency normalised" `Quick test_app_efficiency_normalised;
          Alcotest.test_case "series shapes" `Quick test_cascade_shapes;
          Alcotest.test_case "cuda crashes" `Quick test_cascade_cuda_crashes;
          Alcotest.test_case "kokkos survives" `Quick test_cascade_kokkos_survives;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "reset, diff, snapshot" `Quick
            test_telemetry_reset_and_diff;
          Alcotest.test_case "rows and summary string" `Quick
            test_telemetry_rows_and_string;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_phi_between_min_max; prop_phi_le_arithmetic_mean ] );
    ]
