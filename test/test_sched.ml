(* Tests for Sv_sched: pool semantics (ordering, error shipping, serial
   fallback) and the differential guarantee the engine rests on — the
   parallel and cached divergence matrices are identical to the serial
   ones on the BabelStream corpus. *)

module Sched = Sv_sched.Sched
module M = Sv_msgpack.Msgpack
module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Cluster = Sv_cluster.Cluster
module Ted_cache = Sv_db.Codebase_db.Ted_cache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let encode_int i = M.Int i
let decode_int = function M.Int i -> i | _ -> failwith "expected Int"

(* --- pool semantics --- *)

let test_map_matches_serial () =
  let tasks = Array.init 37 Fun.id in
  let f i = (i * i) + 1 in
  let serial = Array.map f tasks in
  let par =
    Sched.map ~jobs:4 ~encode:encode_int ~decode:decode_int ~f tasks
  in
  checkb "parallel map equals serial map" true (par = serial)

let test_map_order_under_skew () =
  (* earlier tasks are much more expensive, so with dynamic scheduling
     the results arrive out of order — reassembly must still be by index *)
  let tasks = Array.init 16 Fun.id in
  let f i =
    let spin = (16 - i) * 20000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := (!acc + k) mod 9973
    done;
    (i * 10) + (!acc * 0)
  in
  let out = Sched.map ~jobs:3 ~encode:encode_int ~decode:decode_int ~f tasks in
  checkb "indices reassembled in order" true (out = Array.map f tasks)

let test_map_serial_fallback () =
  let tasks = [| 1; 2; 3 |] in
  let out = Sched.map ~jobs:1 ~encode:encode_int ~decode:decode_int ~f:succ tasks in
  checkb "jobs=1 runs in-process" true (out = [| 2; 3; 4 |]);
  let single =
    Sched.map ~jobs:8 ~encode:encode_int ~decode:decode_int ~f:succ [| 41 |]
  in
  checkb "single task runs in-process" true (single = [| 42 |])

let test_map_empty () =
  let out = Sched.map ~jobs:4 ~encode:encode_int ~decode:decode_int ~f:succ [||] in
  checki "empty input" 0 (Array.length out)

let contains_sub ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let test_worker_error_propagates () =
  let f i = if i = 5 then failwith "boom on five" else i in
  match
    Sched.map ~jobs:2 ~encode:encode_int ~decode:decode_int ~f (Array.init 9 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failed from a raising worker task"
  | exception Sched.Worker_failed { task; failure = Sched.Task_raised msg; _ } ->
      checki "failure names the task index" 5 task;
      checkb "error message carries the worker failure" true
        (contains_sub ~needle:"boom on five" msg)
  | exception e ->
      Alcotest.failf "expected Task_raised, got %s" (Printexc.to_string e)

(* A child killed by a signal (OOM-killer stand-in) must surface as a
   typed error naming the task index — never a hang on a closed pipe.
   Retries and degradation are disabled so the first strike is final. *)
let test_signal_death_is_typed () =
  let policy =
    { (Sched.default_policy ()) with Sched.max_retries = 0; degrade = false }
  in
  let f i =
    if i = 3 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    i * 2
  in
  match
    Sched.map ~jobs:2 ~policy ~encode:encode_int ~decode:decode_int ~f
      (Array.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failed from a SIGKILLed worker"
  | exception Sched.Worker_failed { task; attempts; failure = Sched.Crashed detail } ->
      checki "failure names the task index" 3 task;
      checki "one attempt was made" 1 attempts;
      checkb "detail reports the signal" true (contains_sub ~needle:"signal" detail)
  | exception e ->
      Alcotest.failf "expected Crashed, got %s" (Printexc.to_string e)

(* With degradation on (the default), even a task whose worker dies on
   every attempt completes — in-process, with the serial answer — and the
   counters record the recovery. *)
let test_degraded_task_completes () =
  let parent = Unix.getpid () in
  let policy =
    { (Sched.default_policy ()) with Sched.max_retries = 1; backoff = 0.005 }
  in
  let stats = Sched.fresh_stats () in
  let f i =
    (* only child processes crash; the parent's in-process retry succeeds *)
    if i = 4 && Unix.getpid () <> parent then Unix.kill (Unix.getpid ()) Sys.sigkill;
    (i * 3) + 1
  in
  let tasks = Array.init 10 Fun.id in
  let out =
    Sched.map ~jobs:3 ~policy ~stats ~encode:encode_int ~decode:decode_int ~f tasks
  in
  checkb "degraded batch equals serial" true (out = Array.map (fun i -> (i * 3) + 1) tasks);
  checki "both worker attempts crashed" 2 stats.Sched.crashes;
  checki "one retry was dispatched" 1 stats.Sched.retries;
  checki "each strike respawned a worker" 2 stats.Sched.respawns;
  checki "the task finished in-process" 1 stats.Sched.degraded

let test_default_jobs_env () =
  checkb "default jobs positive" true (Sched.default_jobs () >= 1)

(* --- differential: serial vs parallel vs cached matrices --- *)

(* A slice of the BabelStream corpus keeps the test fast while still
   spanning model families (serial baseline, directives, library,
   offload). *)
let stream_slice =
  lazy
    (Sv_corpus.Babelstream.all ()
    |> List.filter (fun (cb : Sv_corpus.Emit.codebase) ->
           List.mem cb.Sv_corpus.Emit.model
             [ "serial"; "omp"; "kokkos"; "cuda"; "stdpar" ])
    |> List.map Pipeline.index)

let matrix_with ~jobs ~cache ixs =
  Tbmd.clear_memo ();
  Tbmd.set_jobs jobs;
  Tbmd.set_ted_cache cache;
  Fun.protect
    ~finally:(fun () ->
      Tbmd.set_jobs 1;
      Tbmd.set_ted_cache None)
    (fun () -> Tbmd.matrix Tbmd.TSem ixs)

(* Byte-identical, not approximately equal: render both matrices and
   compare the strings too, so even formatting-visible drift fails. *)
let render (m : Cluster.matrix) =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
          m.Cluster.data))

let test_parallel_matrix_identical () =
  let ixs = Lazy.force stream_slice in
  let serial = matrix_with ~jobs:1 ~cache:None ixs in
  let parallel = matrix_with ~jobs:3 ~cache:None ixs in
  checkb "labels equal" true (serial.Cluster.labels = parallel.Cluster.labels);
  checkb "float data identical" true (serial.Cluster.data = parallel.Cluster.data);
  Alcotest.(check string) "rendered bytes identical" (render serial) (render parallel)

let test_cached_matrix_identical () =
  let ixs = Lazy.force stream_slice in
  let serial = matrix_with ~jobs:1 ~cache:None ixs in
  let cache = Ted_cache.create () in
  let cold = matrix_with ~jobs:2 ~cache:(Some cache) ixs in
  let entries_after_cold = Ted_cache.size cache in
  let warm = matrix_with ~jobs:1 ~cache:(Some cache) ixs in
  checkb "cold cached matrix identical" true (serial.Cluster.data = cold.Cluster.data);
  checkb "warm cached matrix identical" true (serial.Cluster.data = warm.Cluster.data);
  checkb "parallel workers shipped entries back" true (entries_after_cold > 0);
  checki "warm run added nothing" entries_after_cold (Ted_cache.size cache);
  checkb "warm run hit the cache" true (Ted_cache.hits cache > 0)

let test_cache_save_load_roundtrip () =
  let ixs = Lazy.force stream_slice in
  let cache = Ted_cache.create () in
  let m1 = matrix_with ~jobs:1 ~cache:(Some cache) ixs in
  let reloaded =
    match Ted_cache.load (Ted_cache.save cache) with
    | Ok c -> c
    | Error e -> Alcotest.failf "cache round-trip failed: %s" e
  in
  checki "entry count survives" (Ted_cache.size cache) (Ted_cache.size reloaded);
  let m2 = matrix_with ~jobs:1 ~cache:(Some reloaded) ixs in
  checkb "matrix from reloaded cache identical" true (m1.Cluster.data = m2.Cluster.data);
  checki "reloaded cache fully warm" 0 (Ted_cache.misses reloaded)

let () =
  Alcotest.run "sched"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "order under skew" `Quick test_map_order_under_skew;
          Alcotest.test_case "serial fallback" `Quick test_map_serial_fallback;
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "worker error propagates" `Quick test_worker_error_propagates;
          Alcotest.test_case "signal death is typed" `Quick test_signal_death_is_typed;
          Alcotest.test_case "degraded task completes" `Quick test_degraded_task_completes;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
        ] );
      ( "differential",
        [
          Alcotest.test_case "parallel matrix identical" `Quick
            test_parallel_matrix_identical;
          Alcotest.test_case "cached matrix identical" `Quick
            test_cached_matrix_identical;
          Alcotest.test_case "cache save/load round-trip" `Quick
            test_cache_save_load_roundtrip;
        ] );
    ]
