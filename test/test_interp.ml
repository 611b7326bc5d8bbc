(* Tests for Sv_interp: expression/statement semantics, dialect builtins,
   coverage recording, error handling, and the full-corpus verification
   runs (the mini-apps' built-in checks). *)

module Ic = Sv_interp.Interp_c
module If_ = Sv_interp.Interp_f
module Coverage = Sv_util.Coverage

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run_c ?max_steps src =
  Ic.run ?max_steps [ Sv_lang_c.Parser.parse ~file:"t.cpp" src ]

let result_int src =
  match (run_c src).Ic.result with
  | Ok (Ic.VInt n) -> n
  | Ok v -> Alcotest.failf "expected int, got %s" (Format.asprintf "%a" Ic.pp_value v)
  | Error e -> Alcotest.failf "runtime error: %s" e

let main body = Printf.sprintf "int main() { %s }" body

(* --- expressions and statements --- *)

let test_arith () =
  checki "int arith" 7 (result_int (main "return 1 + 2 * 3;"));
  checki "division" 3 (result_int (main "return 10 / 3;"));
  checki "modulo" 1 (result_int (main "return 10 % 3;"));
  checki "bit ops" 6 (result_int (main "return (3 | 4) & 6;"));
  checki "shifts" 20 (result_int (main "return 5 << 2;"));
  checki "unary minus" (-4) (result_int (main "return -4;"));
  checki "comparison" 1 (result_int (main "return (3 < 4) ? 1 : 0;"));
  checki "float to int return" 2 (result_int (main "double x = 2.5; return (int)x;"))

let test_short_circuit () =
  (* the right operand must not evaluate (it would divide by zero) *)
  checki "&& shortcuts" 0 (result_int (main "int z = 0; return (z != 0 && 1 / z > 0) ? 1 : 0;"));
  checki "|| shortcuts" 1 (result_int (main "int z = 0; return (z == 0 || 1 / z > 0) ? 1 : 0;"))

let test_control_flow () =
  checki "while" 10 (result_int (main "int s = 0; int i = 0; while (i < 4) { s += i; i++; } return s + 4;"));
  checki "do-while" 1 (result_int (main "int i = 0; do { i++; } while (i < 1); return i;"));
  checki "for with break" 3 (result_int (main "int s = 0; for (int i = 0; i < 10; i++) { if (i == 3) { break; } s = i + 1; } return s;"));
  checki "continue" 12 (result_int (main "int s = 0; for (int i = 0; i < 6; i++) { if (i % 2 == 0) { continue; } s += i + 1; } return s;"));
  checki "nested if" 5 (result_int (main "int x = 2; if (x > 1) { if (x > 3) { return 9; } return 5; } return 0;"))

let test_functions_and_recursion () =
  checki "call" 9 (result_int "int sq(int x) { return x * x; } int main() { return sq(3); }");
  checki "recursion" 120
    (result_int "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main() { return fact(5); }")

let test_arrays_and_pointers () =
  checki "new/index" 42 (result_int (main "double *a = new double[4]; a[2] = 42.0; return (int)a[2];"));
  checki "int arrays" 5 (result_int (main "int *v = new int[3]; v[0] = 5; return v[0];"));
  checki "fixed arrays" 3 (result_int (main "double t[8]; t[7] = 3.0; return (int)t[7];"));
  checki "addr-of and deref" 8 (result_int (main "int x = 3; int *p = &x; *p = 8; return x;"))

let test_structs () =
  checki "field access" 4
    (result_int "struct P { int x; int y; }; int main() { P p; p.x = 4; return p.x; }")

let test_closures () =
  checki "lambda captures environment" 30
    (result_int (main "int acc = 0; auto f = [=](int i) { acc += i; }; f(10); f(20); return acc;"))

let test_out_of_bounds () =
  match (run_c (main "double *a = new double[2]; a[5] = 1.0; return 0;")).Ic.result with
  | Error e -> checkb "reports bounds" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected out-of-bounds error"

let test_unknown_name () =
  match (run_c (main "return nope;")).Ic.result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-name error"

let test_step_budget () =
  match (run_c ~max_steps:100 (main "while (true) { int x = 0; } return 0;")).Ic.result with
  | Error e -> checkb "budget message" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected step-budget error"

let test_printf_formats () =
  let o = run_c (main "printf(\"i=%d f=%f s=%s%%\\n\", 42, 1.5, \"x\"); return 0;") in
  Alcotest.(check string) "formatted" "i=42 f=1.500000 s=x%\n" o.Ic.output

(* --- dialect builtins --- *)

let test_cuda_semantics () =
  checki "grid iteration covers all indices" 0
    (result_int
       {|
__global__ void fill(double *a, int n) {
  int i = blockDim.x * blockIdx.x + threadIdx.x;
  if (i < n) { a[i] = (double)i; }
}
int main() {
  int n = 100;
  double *a;
  cudaMalloc((void **)&a, n * sizeof(double));
  fill<<<(n + 31) / 32, 32>>>(a, n);
  for (int i = 0; i < n; i++) {
    if (a[i] != (double)i) { return 1; }
  }
  return 0;
}
|})

let test_sycl_semantics () =
  checki "queue + usm" 0
    (result_int
       {|
int main() {
  int n = 16;
  sycl::queue q;
  double *a = (double *)sycl::malloc_shared(n * sizeof(double), q);
  q.parallel_for(sycl::range<1>(n), [=](sycl::id<1> i) { a[i] = 2.0; });
  q.wait();
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += a[i]; }
  sycl::free(a, q);
  return (s == 32.0) ? 0 : 1;
}
|})

let test_kokkos_semantics () =
  checki "views + reduce" 0
    (result_int
       {|
int main() {
  Kokkos::initialize();
  int n = 8;
  Kokkos::View<double*> v("v", n);
  Kokkos::parallel_for("fill", n, [=](const int i) { v(i) = 3.0; });
  double sum = 0.0;
  Kokkos::parallel_reduce("sum", n, [=](const int i, double &acc) { acc += v(i); }, &sum);
  Kokkos::finalize();
  return (sum == 24.0) ? 0 : 1;
}
|})

let test_tbb_semantics () =
  checki "blocked range" 0
    (result_int
       {|
int main() {
  int n = 10;
  double *a = new double[n];
  tbb::parallel_for(tbb::blocked_range<int>(0, n), [=](tbb::blocked_range<int> r) {
    for (int i = r.begin(); i < r.end(); i++) { a[i] = 1.0; }
  });
  double s = 0.0;
  for (int i = 0; i < n; i++) { s += a[i]; }
  return (s == 10.0) ? 0 : 1;
}
|})

let test_stdpar_semantics () =
  checki "for_each + transform_reduce" 0
    (result_int
       {|
int main() {
  int n = 10;
  double *a = new double[n];
  std::for_each(std::execution::par_unseq, counting_iterator(0), counting_iterator(n),
    [=](int i) { a[i] = (double)i; });
  double s = std::transform_reduce(std::execution::par_unseq, counting_iterator(0),
    counting_iterator(n), 0.0,
    [=](double x, double y) { return x + y; }, [=](int i) { return a[i]; });
  return (s == 45.0) ? 0 : 1;
}
|})

let test_raja_semantics () =
  checki "forall + reducer" 0
    (result_int
       {|
int main() {
  int n = 12;
  double *a = new double[n];
  RAJA::forall<RAJA::omp_parallel_for_exec>(RAJA::RangeSegment(0, n), [=](int i) {
    a[i] = 2.0;
  });
  RAJA::ReduceSum<RAJA::omp_reduce, double> total(0.0);
  RAJA::forall<RAJA::omp_parallel_for_exec>(RAJA::RangeSegment(0, n), [=](int i) {
    total += a[i];
  });
  double sum = total.get();
  return (sum == 24.0) ? 0 : 1;
}
|})

let test_multi_unit_program () =
  let tu1 =
    Sv_lang_c.Parser.parse ~file:"main.cpp"
      "double helper(double x);\nint main() { return (helper(3.0) == 9.0) ? 0 : 1; }"
  in
  let tu2 =
    Sv_lang_c.Parser.parse ~file:"helper.cpp"
      "double helper(double x) { return x * x; }"
  in
  (match (Ic.run [ tu1; tu2 ]).Ic.result with
  | Ok (Ic.VInt 0) -> ()
  | Ok v -> Alcotest.failf "unexpected result %s" (Format.asprintf "%a" Ic.pp_value v)
  | Error e -> Alcotest.fail e);
  (* coverage lands in the right files *)
  let o = Ic.run [ tu1; tu2 ] in
  checkb "helper file covered" true
    (Coverage.lines_hit o.Ic.coverage ~file:"helper.cpp" <> [])

let test_struct_constructor_args () =
  checki "positional construction" 7
    (result_int
       "struct P { int x; int y; }; int main() { P p(3, 4); return p.x + p.y; }")

let test_ternary_and_casts () =
  checki "ternary picks branch" 5 (result_int (main "int x = 2; return x > 1 ? 5 : 9;"));
  checki "int division after cast" 2 (result_int (main "double d = 5.0; return (int)d / 2;"));
  checki "negative int cast" (-3) (result_int (main "double d = -3.9; return (int)d;"))

let test_global_variables () =
  checki "globals readable and writable" 11
    (result_int "int counter = 4; void bump(int k) { counter += k; } int main() { bump(7); return counter; }")

(* --- coverage --- *)

let test_coverage_records_executed () =
  let o = run_c "int main() {\nint x = 1;\nreturn x;\n}" in
  checkb "line 2 covered" true (Coverage.covered o.Ic.coverage ~file:"t.cpp" ~line:2)

let test_coverage_skips_dead_branch () =
  let o = run_c "int main() {\nif (false) {\nint dead = 0;\n}\nreturn 0;\n}" in
  checkb "dead line not covered" false
    (Coverage.covered o.Ic.coverage ~file:"t.cpp" ~line:3)

(* --- outcomes pinned to the step ---

   Each case fixes every field a run reports — result, output, steps and
   per-line counts — so a change to how names, calls or statements are
   dispatched cannot move a step or a count unnoticed. *)

let error_of r =
  match r with
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected a runtime error"

let count o line = Coverage.count o.Ic.coverage ~file:"t.cpp" ~line

let budget_src =
  "int main() {\n  int s = 0;\n  for (int i = 0; i < 100; i++) {\n    s += i;\n  }\n  return s;\n}\n"

let test_budget_same_statement () =
  let o = run_c ~max_steps:10 budget_src in
  Alcotest.(check string)
    "budget error names the statement"
    "step budget exhausted (10) at t.cpp:4:6" (error_of o.Ic.result);
  checki "steps stop one past the budget" 11 o.Ic.steps;
  (* the statement that exhausts the budget is not counted *)
  checki "loop body count" 7 (count o 4);
  checki "for count" 2 (count o 3);
  let full = run_c ~max_steps:104 budget_src in
  checkb "a budget of exactly the run's steps suffices" true (full.Ic.result = Ok (Ic.VInt 4950));
  checki "full run steps" 104 full.Ic.steps;
  let short = run_c ~max_steps:103 budget_src in
  Alcotest.(check string)
    "one step short fails at the return" "step budget exhausted (103) at t.cpp:6:2"
    (error_of short.Ic.result)

let test_two_statements_one_line () =
  let o =
    run_c "int main() {\n  int a = 1; int b = 2;\n  a = a + b; b = b * a;\n  return a + b;\n}\n"
  in
  checkb "result" true (o.Ic.result = Ok (Ic.VInt 9));
  checki "steps" 5 o.Ic.steps;
  checki "both declarations count" 2 (count o 2);
  checki "both assignments count" 2 (count o 3);
  checki "return line" 1 (count o 4)

let test_wtime_follows_steps () =
  (* omp_get_wtime is a clock derived from the step counter (1 ns per
     step), and reading it is itself a step *)
  let o =
    run_c
      "int main() {\n  double t0 = omp_get_wtime();\n  int s = 0;\n  for (int i = 0; i < 10; i++) {\n    s += i;\n  }\n  double t1 = omp_get_wtime();\n  printf(\"%d %d %f\\n\", (int)(t0 * 1e9 + 0.5), (int)(t1 * 1e9 + 0.5), (t1 - t0) * 1e9);\n  return 0;\n}\n"
  in
  Alcotest.(check string) "clock readings" "2 17 15.000000\n" o.Ic.output;
  checki "steps include the two clock reads" 19 o.Ic.steps

let test_shadowing_and_block_scope () =
  let o =
    run_c
      "int main() {\n  int x = 1;\n  { int x = 2; x = x + 10; }\n  for (int x = 5; x < 7; x++) { int y = x; x = y; }\n  if (x == 1) { int x = 3; }\n  return x;\n}\n"
  in
  checkb "outer binding survives inner ones" true (o.Ic.result = Ok (Ic.VInt 1));
  checki "steps" 13 o.Ic.steps;
  checki "for line" 6 (count o 4)

let test_use_before_declaration () =
  let o = run_c "int main() {\n  int a = 1;\n  a = a + 1;\n  b = 2;\n  int b = 3;\n  return b;\n}\n" in
  Alcotest.(check string)
    "assignment before the declaration" "assignment to unknown variable b at t.cpp:4:2"
    (error_of o.Ic.result);
  checki "raised at the third step" 3 o.Ic.steps;
  let o = run_c "int main() {\n  int a = 1;\n  int c = a + d;\n  int d = 2;\n  return c;\n}\n" in
  Alcotest.(check string)
    "read before the declaration" "unknown name d at t.cpp:3:14" (error_of o.Ic.result);
  checki "raised at the second step" 2 o.Ic.steps

let test_lambda_captures_by_reference () =
  (* the model bodies (Kokkos, SYCL, TBB, StdPar) are lambdas that update
     enclosing variables; a lambda also sees a variable its enclosing
     scope declares after the lambda, once that declaration has run *)
  let o =
    run_c
      "int main() {\n  double sum = 0.0;\n  auto add = [&](int i) { sum += i; };\n  for (int i = 0; i < 4; i++) { add(i); }\n  auto later = [&]() { return w * 2; };\n  int w = 7;\n  return (int)sum + later();\n}\n"
  in
  checkb "sum and late binding" true (o.Ic.result = Ok (Ic.VInt 20));
  checki "steps" 16 o.Ic.steps;
  checki "lambda body line" 5 (count o 3)

let test_fortran_budget_same_statement () =
  let src =
    "program p\n  integer :: i, s\n  s = 0\n  do i = 1, 100\n    s = s + i\n  end do\n  print *, s\nend program p\n"
  in
  let o = If_.run ~max_steps:10 (Sv_lang_f.Parser.parse ~file:"t.f90" src) in
  checkb "budget error names the statement" true
    (o.If_.result = Error "step budget exhausted (10) at t.f90:5:4");
  checki "steps" 11 o.If_.steps;
  checki "loop body count" 8 (Coverage.count o.If_.coverage ~file:"t.f90" ~line:5);
  let full = If_.run (Sv_lang_f.Parser.parse ~file:"t.f90" src) in
  checki "full run steps" 103 full.If_.steps;
  Alcotest.(check string) "full run output" "5050\n" full.If_.output

(* --- Fortran --- *)

let run_f src = If_.run (Sv_lang_f.Parser.parse ~file:"t.f90" src)

let test_fortran_basics () =
  let o =
    run_f
      "program t\n  implicit none\n  integer :: i\n  real(kind=8) :: s\n  real(kind=8), allocatable, dimension(:) :: a\n  allocate(a(10))\n  do i = 1, 10\n    a(i) = real(i, 8)\n  end do\n  s = sum(a)\n  print *, s\nend program t\n"
  in
  checkb "ran" true (o.If_.result = Ok ());
  checkb "sum printed" true (o.If_.output = "55.000000\n")

let test_fortran_subroutine_byref () =
  let o =
    run_f
      "program t\n  implicit none\n  real(kind=8) :: x\n  x = 3.0d0\n  call double_it(x)\n  print *, x\nend program t\n\nsubroutine double_it(v)\n  implicit none\n  real(kind=8) :: v\n  v = 2.0d0 * v\nend subroutine double_it\n"
  in
  checkb "by-reference update" true (o.If_.output = "6.000000\n")

let test_fortran_array_broadcast () =
  let o =
    run_f
      "program t\n  implicit none\n  real(kind=8), allocatable, dimension(:) :: a, b\n  allocate(a(4), b(4))\n  a = 2.0d0\n  b = 3.0d0 * a + 1.0d0\n  print *, sum(b), dot_product(a, b)\nend program t\n"
  in
  checkb "broadcast arithmetic" true (o.If_.output = "28.000000 56.000000\n")

let test_fortran_exit_cycle () =
  let o =
    run_f
      "program t\n  implicit none\n  integer :: i, s\n  s = 0\n  do i = 1, 100\n    if (i == 5) then\n      exit\n    end if\n    if (mod(i, 2) == 0) then\n      cycle\n    end if\n    s = s + i\n  end do\n  print *, s\nend program t\n"
  in
  checkb "exit/cycle" true (o.If_.output = "4\n")

let test_fortran_error () =
  let o = run_f "program t\n  implicit none\n  real(kind=8) :: x\n  x = nosuch(1)\nend program t\n" in
  checkb "unknown function reported" true (Result.is_error o.If_.result)

(* --- the corpus verification runs --- *)

let verify_c name all =
  List.iter
    (fun (cb : Sv_corpus.Emit.codebase) ->
      let resolve n = List.assoc_opt n cb.Sv_corpus.Emit.files in
      let parse_unit file =
        let src = List.assoc file cb.Sv_corpus.Emit.files in
        let pp = Sv_lang_c.Preproc.run ~resolve ~defines:[] ~file src in
        Sv_lang_c.Parser.parse_tokens ~file pp.Sv_lang_c.Preproc.tokens
      in
      let units =
        List.map parse_unit
          (cb.Sv_corpus.Emit.main_file :: cb.Sv_corpus.Emit.extra_units)
      in
      match (Ic.run units).Ic.result with
      | Ok (Ic.VInt 0) -> ()
      | Ok v ->
          Alcotest.failf "%s/%s returned %s" name cb.Sv_corpus.Emit.model
            (Format.asprintf "%a" Ic.pp_value v)
      | Error e -> Alcotest.failf "%s/%s: %s" name cb.Sv_corpus.Emit.model e)
    all

let test_verify_babelstream () = verify_c "babelstream" (Sv_corpus.Babelstream.all ())
let test_verify_tealeaf () = verify_c "tealeaf" (Sv_corpus.Tealeaf.all ())
let test_verify_cloverleaf () = verify_c "cloverleaf" (Sv_corpus.Cloverleaf.all ())
let test_verify_minibude () = verify_c "minibude" (Sv_corpus.Minibude.all ())

let test_verify_babelstream_f () =
  List.iter
    (fun (cb : Sv_corpus.Emit.codebase) ->
      let src = List.assoc cb.Sv_corpus.Emit.main_file cb.Sv_corpus.Emit.files in
      let o = run_f src in
      match o.If_.result with
      | Ok () ->
          checkb
            (Printf.sprintf "%s validation output" cb.Sv_corpus.Emit.model)
            true
            (Sv_util.Xstring.starts_with ~prefix:"Validation PASSED" o.If_.output)
      | Error e -> Alcotest.failf "%s: %s" cb.Sv_corpus.Emit.model e)
    (Sv_corpus.Babelstream_f.all ())

let () =
  Alcotest.run "interp"
    [
      ( "c-semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions_and_recursion;
          Alcotest.test_case "arrays/pointers" `Quick test_arrays_and_pointers;
          Alcotest.test_case "structs" `Quick test_structs;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "printf" `Quick test_printf_formats;
        ] );
      ( "c-errors",
        [
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
          Alcotest.test_case "unknown name" `Quick test_unknown_name;
          Alcotest.test_case "step budget" `Quick test_step_budget;
        ] );
      ( "dialects",
        [
          Alcotest.test_case "cuda" `Quick test_cuda_semantics;
          Alcotest.test_case "sycl" `Quick test_sycl_semantics;
          Alcotest.test_case "kokkos" `Quick test_kokkos_semantics;
          Alcotest.test_case "tbb" `Quick test_tbb_semantics;
          Alcotest.test_case "stdpar" `Quick test_stdpar_semantics;
          Alcotest.test_case "raja" `Quick test_raja_semantics;
        ] );
      ( "programs",
        [
          Alcotest.test_case "multi-unit link" `Quick test_multi_unit_program;
          Alcotest.test_case "struct constructor" `Quick test_struct_constructor_args;
          Alcotest.test_case "ternary/casts" `Quick test_ternary_and_casts;
          Alcotest.test_case "globals" `Quick test_global_variables;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "records executed lines" `Quick test_coverage_records_executed;
          Alcotest.test_case "skips dead branches" `Quick test_coverage_skips_dead_branch;
        ] );
      ( "pinned-outcomes",
        [
          Alcotest.test_case "budget at the same statement" `Quick test_budget_same_statement;
          Alcotest.test_case "two statements on one line" `Quick test_two_statements_one_line;
          Alcotest.test_case "omp_get_wtime follows steps" `Quick test_wtime_follows_steps;
          Alcotest.test_case "shadowing and block scope" `Quick test_shadowing_and_block_scope;
          Alcotest.test_case "use before declaration" `Quick test_use_before_declaration;
          Alcotest.test_case "lambda captures by reference" `Quick
            test_lambda_captures_by_reference;
          Alcotest.test_case "fortran budget" `Quick test_fortran_budget_same_statement;
        ] );
      ( "fortran",
        [
          Alcotest.test_case "basics" `Quick test_fortran_basics;
          Alcotest.test_case "by-reference args" `Quick test_fortran_subroutine_byref;
          Alcotest.test_case "array broadcast" `Quick test_fortran_array_broadcast;
          Alcotest.test_case "exit/cycle" `Quick test_fortran_exit_cycle;
          Alcotest.test_case "errors" `Quick test_fortran_error;
        ] );
      ( "corpus-verification",
        [
          Alcotest.test_case "babelstream c++" `Slow test_verify_babelstream;
          Alcotest.test_case "babelstream fortran" `Quick test_verify_babelstream_f;
          Alcotest.test_case "tealeaf" `Slow test_verify_tealeaf;
          Alcotest.test_case "cloverleaf" `Slow test_verify_cloverleaf;
          Alcotest.test_case "minibude" `Slow test_verify_minibude;
        ] );
    ]
