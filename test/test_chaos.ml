(* Chaos suite for the fault-tolerant pool (Sv_sched): every injected
   failure class — crash, hang, garbage frame, torn frame — alone and
   combined, driven by the deterministic Sv_sched.Sched.Fault layer.

   Two oracles anchor every test. First, results: a faulted batch must
   equal the serial run byte-for-byte, because recovery (respawn, retry,
   in-process degradation) may never change an answer. Second, the fault
   sequence itself: Fault.draw is a pure function of (seed, task,
   attempt), so the pool's recovery counters are compared against an
   exact replay computed without running anything.

   This suite runs under `dune runtest` but is deliberately left out of
   the `@quick` alias (hang injection waits out real timeouts).
   SV_PROP_ITERS=<n> scales the batch to ~n/10 tasks. *)

module Sched = Sv_sched.Sched
module Fault = Sv_sched.Sched.Fault
module M = Sv_msgpack.Msgpack
module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Cluster = Sv_cluster.Cluster
module Ted_cache = Sv_db.Codebase_db.Ted_cache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let chaos_tasks =
  match Sys.getenv_opt "SV_PROP_ITERS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> max 32 (n / 10)
      | _ -> 48)
  | None -> 48

let encode_int i = M.Int i
let decode_int = function M.Int i -> i | _ -> failwith "expected Int"

(* --- the fault spec itself --- *)

let test_spec_parse_roundtrip () =
  match Fault.parse "crash:0.05, hang:0.02,garbage:0.03,trunc:0.01,seed:42" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok s ->
      checkb "crash rate" true (s.Fault.crash = 0.05);
      checkb "hang rate" true (s.Fault.hang = 0.02);
      checkb "garbage rate" true (s.Fault.garbage = 0.03);
      checkb "trunc rate" true (s.Fault.trunc = 0.01);
      checki "seed" 42 s.Fault.seed;
      (match Fault.parse (Fault.to_string s) with
      | Ok s' -> checkb "to_string round-trips" true (s = s')
      | Error e -> Alcotest.failf "round-trip parse failed: %s" e)

let test_spec_parse_errors () =
  let bad s = Result.is_error (Fault.parse s) in
  checkb "unknown key" true (bad "explode:0.5");
  checkb "rate above 1" true (bad "crash:1.5");
  checkb "negative rate" true (bad "crash:-0.1");
  checkb "rates sum above 1" true (bad "crash:0.6,hang:0.6");
  checkb "missing colon" true (bad "crash");
  checkb "bad seed" true (bad "seed:many");
  checkb "empty spec is none" true (Fault.parse "" = Ok Fault.none)

let test_draw_deterministic () =
  let spec =
    { Fault.crash = 0.2; hang = 0.2; garbage = 0.2; trunc = 0.2; seed = 7 }
  in
  let all_same = ref true in
  let varies = ref false in
  for t = 0 to 199 do
    let a = Fault.draw spec ~task:t ~attempt:0 in
    if a <> Fault.draw spec ~task:t ~attempt:0 then all_same := false;
    if a <> Fault.draw spec ~task:t ~attempt:1 then varies := true
  done;
  checkb "same (task, attempt) always draws the same action" true !all_same;
  checkb "attempts draw independently" true !varies;
  checkb "none never injects" true
    (Fault.draw Fault.none ~task:3 ~attempt:0 = Fault.Pass)

(* --- the chaos matrix: pool recovery vs the serial oracle --- *)

let policy =
  { Sched.task_timeout = 0.6; max_retries = 2; backoff = 0.01; degrade = true }

(* Replay the exact fault sequence the pool will see and derive the
   counters it must report. *)
let expected spec n =
  let e = Sched.fresh_stats () in
  for t = 0 to n - 1 do
    let rec go attempt =
      match Fault.draw spec ~task:t ~attempt with
      | Fault.Pass -> ()
      | a ->
          (match a with
          | Fault.Crash -> e.Sched.crashes <- e.Sched.crashes + 1
          | Fault.Hang -> e.Sched.timeouts <- e.Sched.timeouts + 1
          | Fault.Garbage | Fault.Trunc -> e.Sched.corrupt <- e.Sched.corrupt + 1
          | Fault.Pass -> ());
          e.Sched.respawns <- e.Sched.respawns + 1;
          if attempt >= policy.Sched.max_retries then
            e.Sched.degraded <- e.Sched.degraded + 1
          else begin
            e.Sched.retries <- e.Sched.retries + 1;
            go (attempt + 1)
          end
    in
    go 0
  done;
  e

let run_chaos spec () =
  let n = chaos_tasks in
  let tasks = Array.init n Fun.id in
  let f i = ((i * 37) mod 101) + (i * i) in
  let serial = Array.map f tasks in
  let stats = Sched.fresh_stats () in
  Fault.set spec;
  let out =
    Fun.protect ~finally:Fault.clear (fun () ->
        Sched.map ~jobs:4 ~policy ~stats ~encode:encode_int ~decode:decode_int
          ~f tasks)
  in
  checkb "chaos result equals the serial oracle" true (out = serial);
  let e = expected spec n in
  checki "crash strikes" e.Sched.crashes stats.Sched.crashes;
  checki "timeout strikes" e.Sched.timeouts stats.Sched.timeouts;
  checki "corrupt strikes" e.Sched.corrupt stats.Sched.corrupt;
  checki "retries" e.Sched.retries stats.Sched.retries;
  checki "respawns (one per strike)" e.Sched.respawns stats.Sched.respawns;
  checki "degraded tasks" e.Sched.degraded stats.Sched.degraded

let crash_only = { Fault.none with Fault.crash = 0.3; seed = 11 }
let hang_only = { Fault.none with Fault.hang = 0.1; seed = 7 }
let garbage_only = { Fault.none with Fault.garbage = 0.3; seed = 23 }
let trunc_only = { Fault.none with Fault.trunc = 0.3; seed = 31 }

let combined =
  { Fault.crash = 0.1; hang = 0.05; garbage = 0.1; trunc = 0.05; seed = 42 }

(* --- the TED engine under injected faults --- *)

(* A slice of the BabelStream corpus: four models give six pairwise
   tasks, enough to exercise retry and degradation while staying fast.
   Hangs are excluded here — they are covered by the pool-level matrix —
   so the engine tests never sit out a multi-second TED timeout. *)
let stream_slice =
  lazy
    (Sv_corpus.Babelstream.all ()
    |> List.filter (fun (cb : Sv_corpus.Emit.codebase) ->
           List.mem cb.Sv_corpus.Emit.model [ "serial"; "omp"; "kokkos"; "cuda" ])
    |> List.map Pipeline.index)

let engine_spec =
  { Fault.crash = 0.2; hang = 0.0; garbage = 0.15; trunc = 0.1; seed = 97 }

let matrix_with ~jobs ~cache ixs =
  Tbmd.clear_memo ();
  Tbmd.set_jobs jobs;
  Tbmd.set_ted_cache cache;
  Fun.protect
    ~finally:(fun () ->
      Tbmd.set_jobs 1;
      Tbmd.set_ted_cache None)
    (fun () -> Tbmd.matrix Tbmd.TSem ixs)

let render (m : Cluster.matrix) =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "%.17g") row)))
          m.Cluster.data))

let test_faulted_matrix_identical () =
  let ixs = Lazy.force stream_slice in
  let serial = matrix_with ~jobs:1 ~cache:None ixs in
  Fault.set engine_spec;
  let faulted =
    Fun.protect ~finally:Fault.clear (fun () ->
        matrix_with ~jobs:3 ~cache:None ixs)
  in
  checkb "labels equal" true (serial.Cluster.labels = faulted.Cluster.labels);
  checkb "float data identical" true (serial.Cluster.data = faulted.Cluster.data);
  Alcotest.(check string) "rendered bytes identical" (render serial) (render faulted)

(* The same oracle over a generated (not hand-written) corpus: grown
   kernels for the fat models carry T_sem trees several times larger
   than the BabelStream slice, so the recovery paths — retry
   re-serialisation, in-process degradation — are exercised on
   non-trivial tree sizes. *)
let gen_slice =
  lazy
    (Option.get (Sv_core.Apps.corpus_of_app "gen:grow:cuda,hip,sycl-acc:29:8")
    |> List.map Pipeline.index)

let test_faulted_matrix_generated () =
  let ixs = Lazy.force gen_slice in
  let serial = matrix_with ~jobs:1 ~cache:None ixs in
  Fault.set { engine_spec with Fault.seed = 13 };
  let faulted =
    Fun.protect ~finally:Fault.clear (fun () ->
        matrix_with ~jobs:3 ~cache:None ixs)
  in
  checkb "labels equal" true (serial.Cluster.labels = faulted.Cluster.labels);
  checkb "float data identical" true (serial.Cluster.data = faulted.Cluster.data);
  Alcotest.(check string) "rendered bytes identical" (render serial) (render faulted)

(* A run that degrades mid-batch must leave the cache either absent or
   valid for every key — never torn. The strongest form: the artifact a
   faulted parallel run persists is byte-identical to a clean serial
   run's, and truncating it anywhere still never yields a torn entry
   (the PR 2 truncation fuzzer, pointed at a chaos-built artifact). *)
let test_cache_under_faults () =
  let ixs = Lazy.force stream_slice in
  let clean = Ted_cache.create () in
  let m_clean = matrix_with ~jobs:1 ~cache:(Some clean) ixs in
  let faulted = Ted_cache.create () in
  Fault.set { engine_spec with Fault.seed = 5 };
  let m_faulted =
    Fun.protect ~finally:Fault.clear (fun () ->
        matrix_with ~jobs:3 ~cache:(Some faulted) ixs)
  in
  checkb "faulted cached matrix identical" true
    (m_clean.Cluster.data = m_faulted.Cluster.data);
  checki "same entry count as the clean run" (Ted_cache.size clean)
    (Ted_cache.size faulted);
  checkb "persisted artifact byte-identical to the clean run's" true
    (Ted_cache.save clean = Ted_cache.save faulted);
  let art = Ted_cache.save faulted in
  let torn = ref 0 in
  for k = 1 to 16 do
    let cut = k * String.length art / 17 in
    match Ted_cache.load (String.sub art 0 cut) with
    | Error _ -> ()
    | Ok _ -> incr torn
  done;
  checki "every truncation of the artifact is rejected" 0 !torn

(* --- the daemon under faults --- *)

(* The service layer on top of the faulted pool: a `sv serve` daemon
   forked with fault injection armed and a parallel worker pool must
   stay byte-identical on the wire to a fault-free serial evaluation —
   the recovery machinery is invisible through one more layer of
   indirection (socket, framing, resident caches). *)
let test_daemon_under_faults () =
  let module Engine = Sv_serve.Engine in
  let module Server = Sv_serve.Server in
  let module Client = Sv_serve.Client in
  let module P = Sv_serve.Protocol in
  let cbs = Option.get (Sv_core.Apps.corpus_of_app "babelstream") in
  let find m = Option.get (Sv_core.Apps.find_codebase ~app:"babelstream" cbs m) in
  (* fault-free serial references, computed in this (parent) process *)
  let bix = Pipeline.index (find "serial") in
  let tix = Pipeline.index (find "kokkos") in
  let expect_compare =
    Engine.render_compare ~app:"babelstream" ~base:"serial" ~target:"kokkos"
      bix tix
  in
  let ixs = List.map Pipeline.index cbs in
  let expect_matrix = Engine.render_matrix Tbmd.TSem ixs in
  let socket = Filename.temp_file "sv_chaos_daemon" ".sock" in
  Sys.remove socket;
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       Sv_perf.Telemetry.reset_serve ();
       Fault.set { engine_spec with Fault.seed = 11 };
       Server.serve ~socket
         (Engine.create
            { (Engine.default_config ()) with Engine.jobs = 3; persist_every = 0 })
     with _ -> ());
    Unix._exit 0
  end;
  let rec wait n =
    match Client.connect ~socket ~timeout_s:120. () with
    | Ok c -> c
    | Error e ->
        if n = 0 then Alcotest.failf "daemon did not come up: %s" e
        else begin
          Unix.sleepf 0.05;
          wait (n - 1)
        end
  in
  let c = wait 200 in
  let output req =
    match Client.call c req with
    | Ok (P.Output { output; _ }) -> output
    | Ok (P.Error { kind; message }) ->
        Alcotest.failf "daemon error %s: %s" (P.kind_to_string kind) message
    | Ok _ -> Alcotest.fail "expected an output reply"
    | Error e -> Alcotest.failf "call failed: %s" e
  in
  let compare_req =
    P.Compare { app = "babelstream"; base = "serial"; target = "kokkos" }
  in
  let matrix_req = P.Matrix { app = "babelstream"; metric = "t_sem" } in
  Alcotest.(check string)
    "faulted daemon compare identical to fault-free serial" expect_compare
    (output compare_req);
  Alcotest.(check string)
    "faulted daemon matrix identical to fault-free serial" expect_matrix
    (output matrix_req);
  Alcotest.(check string)
    "warm faulted rerun still identical" expect_compare (output compare_req);
  (match Client.call c P.Shutdown with
  | Ok P.Shutdown_ack -> ()
  | Ok _ -> Alcotest.fail "expected a shutdown ack"
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  Client.close c;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon exited abnormally"

(* --- the persistent store under crashes and concurrent writers --- *)

module Index_cache = Sv_db.Index_cache

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let d16 i = Digest.string (string_of_int i)

let with_temp f =
  let path = Filename.temp_file "sv_chaos_store" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "child writer exited abnormally"

(* A writer is SIGKILLed between the two halves of its append. The torn
   tail must be ignored, every earlier record must load, and the next
   save must compact instead of appending after the garbage. *)
let test_store_killed_mid_append () =
  with_temp @@ fun path ->
  let c = Ted_cache.create () in
  for i = 0 to 9 do Ted_cache.add c (d16 i) (d16 (i + 100)) i done;
  Ted_cache.save_file path c;
  let committed = read_file path in
  (* the exact batch a writer would append, produced on a copy *)
  let batch =
    with_temp @@ fun copy ->
    write_file copy committed;
    let w = Ted_cache.load_file copy in
    for i = 10 to 39 do Ted_cache.add w (d16 i) (d16 (i + 100)) i done;
    Ted_cache.save_file copy w;
    let all = read_file copy in
    String.sub all (String.length committed) (String.length all - String.length committed)
  in
  let ready_r, ready_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      ignore (Unix.write_substring fd batch 0 (String.length batch / 2));
      ignore (Unix.write_substring ready_w "x" 0 1);
      Unix.sleep 60;
      Unix._exit 0
  | pid ->
      Unix.close ready_w;
      ignore (Unix.read ready_r (Bytes.create 1) 0 1);
      Unix.close ready_r;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      checkb "the file holds a torn tail" true
        (String.length (read_file path) > String.length committed);
      let c' = Ted_cache.load_file path in
      checki "earlier records load, the torn tail is ignored" 10 (Ted_cache.size c');
      for i = 0 to 9 do
        checkb "earlier record intact" true (Ted_cache.find c' (d16 i) (d16 (i + 100)) = Some i)
      done;
      Ted_cache.add c' (d16 50) (d16 150) 50;
      Ted_cache.save_file path c';
      Alcotest.(check string)
        "the next save compacts to the canonical image" (Ted_cache.save c')
        (read_file path)

(* Two forked writers load the same state, then save at the same moment.
   Batches are large enough (about 100 KB) that one write is several
   system calls. The union of their entries must survive, with no record
   torn, both from a missing file and from an existing one. *)
let test_store_two_writers () =
  let payload i = String.init 10_000 (fun j -> Char.chr ((i * 7919 + j * 31 + (j * j)) land 0xFF)) in
  let run ~existing =
    with_temp @@ fun path ->
    if existing then begin
      let c = Index_cache.create () in
      for i = 0 to 4 do Index_cache.add c (d16 i) (payload i) done;
      Index_cache.save_file path c
    end
    else Sys.remove path;
    let go_r, go_w = Unix.pipe () in
    let spawn lo hi =
      match Unix.fork () with
      | 0 ->
          Unix.close go_w;
          let c = Index_cache.load_file path in
          for i = lo to hi do Index_cache.add c (d16 i) (payload i) done;
          (* a key both writers add *)
          Index_cache.add c (d16 999) (payload 999);
          ignore (Unix.read go_r (Bytes.create 1) 0 1);
          Index_cache.save_file path c;
          Unix._exit 0
      | pid -> pid
    in
    let a = spawn 100 109 and b = spawn 200 209 in
    Unix.close go_r;
    ignore (Unix.write_substring go_w "go" 0 2);
    Unix.close go_w;
    reap a;
    reap b;
    let c = Index_cache.load_file path in
    let expect = List.init 10 (fun i -> 100 + i) @ List.init 10 (fun i -> 200 + i) @ [ 999 ] in
    let expect = if existing then List.init 5 Fun.id @ expect else expect in
    checki "union of both writers" (List.length expect) (Index_cache.size c);
    List.iter
      (fun i ->
        checkb "entry intact" true (Index_cache.find c (d16 i) = Some (payload i)))
      expect;
    checkb "every batch whole: the file loads strictly" true
      (Result.is_ok (Index_cache.load (read_file path)))
  in
  run ~existing:false;
  run ~existing:true

(* --- the CLI over the store --- *)

let sv_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/sv.exe"

let run_sv args =
  let out = Filename.temp_file "sv_chaos_out" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process sv_exe (Array.of_list (sv_exe :: args)) Unix.stdin fd devnull
  in
  Unix.close fd;
  Unix.close devnull;
  let status = match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1 in
  (status, read_file out)

let compare_args ~ted ~index =
  [ "compare"; "-a"; "babelstream-f"; "-b"; "sequential"; "-t"; "omp"; "-j"; "1";
    "--ted-cache"; ted; "--index-cache"; index ]

let ledger_free out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         not (List.exists (fun p -> String.starts_with ~prefix:p l)
                [ "ted-cache: "; "index-cache: " ]))
  |> String.concat "\n"

(* An all-hit compare must not write either cache file: same bytes, same
   modification time. *)
let test_cli_noop_run () =
  with_temp @@ fun ted ->
  with_temp @@ fun index ->
  let status, cold = run_sv (compare_args ~ted ~index) in
  checki "cold run exits 0" 0 status;
  let ted_bytes = read_file ted and index_bytes = read_file index in
  checkb "cold run stored entries" true
    (String.length ted_bytes > 0 && String.length index_bytes > 0);
  Unix.utimes ted 1_000_000.0 1_000_000.0;
  Unix.utimes index 1_000_000.0 1_000_000.0;
  let status, warm = run_sv (compare_args ~ted ~index) in
  checki "warm run exits 0" 0 status;
  Alcotest.(check string) "same answer" (ledger_free cold) (ledger_free warm);
  checkb "warm ledger reports nothing new" true
    (List.length
       (List.filter
          (fun l ->
            let sub = ", 0 new (saved to " in
            let n = String.length sub in
            let rec at i =
              i + n <= String.length l && (String.sub l i n = sub || at (i + 1))
            in
            at 0)
          (String.split_on_char '\n' warm))
     = 2);
  Alcotest.(check string) "ted cache bytes unchanged" ted_bytes (read_file ted);
  Alcotest.(check string) "index cache bytes unchanged" index_bytes (read_file index);
  checkb "mtimes unchanged" true
    ((Unix.stat ted).Unix.st_mtime = 1_000_000.0
    && (Unix.stat index).Unix.st_mtime = 1_000_000.0)

(* A whole-file cache in the format before the store is a cold start, and
   the run replaces it with a store image rather than appending to it. *)
let test_cli_old_format () =
  with_temp @@ fun ted ->
  with_temp @@ fun index ->
  let old_ted =
    Sv_svz.Svz.compress
      (M.encode
         (M.Map
            [
              (M.Str "schema", M.Int 1);
              (M.Str "ted", M.Arr [ M.Arr [ M.Bin (d16 1); M.Bin (d16 2); M.Int 3 ] ]);
            ]))
  in
  write_file ted old_ted;
  write_file index (Sv_svz.Svz.compress "an old index cache");
  let status, _ = run_sv (compare_args ~ted ~index) in
  checki "exits 0" 0 status;
  List.iter
    (fun path ->
      let s = read_file path in
      checkb "replaced by a store image" true (String.starts_with ~prefix:"SVST" s))
    [ ted; index ];
  checkb "the new file loads strictly" true
    (Result.is_ok (Ted_cache.load (read_file ted)))

(* An index-cache file written at pipeline version 2 (one record per
   codebase, the interpreter's results inside it, the run flag in the
   key) is a cold start: the CLI prints what it prints over no file, and
   the file is rewritten at the current version. The stale file here
   even holds current-format payloads under the current keys; its
   schema alone turns them away. *)
let test_cli_index_version_2 () =
  with_temp @@ fun ted ->
  with_temp @@ fun index ->
  Sys.remove ted;
  Sys.remove index;
  let _, fresh = run_sv (compare_args ~ted ~index) in
  let current = Index_cache.load_file index in
  checki "a fresh run stores two trees records" 2 (Index_cache.size current);
  let cbs = Option.get (Sv_core.Apps.corpus_of_app "babelstream-f") in
  let v2 = Sv_db.Store.create ~kind:'I' ~schema:2 in
  List.iter
    (fun model ->
      let cb = Option.get (Sv_core.Apps.find_codebase ~app:"babelstream-f" cbs model) in
      let key = Pipeline.codebase_key cb in
      ignore (Sv_db.Store.add v2 key (Option.get (Index_cache.find current key))))
    [ "sequential"; "omp" ];
  Sys.remove ted;
  Sys.remove index;
  Sv_db.Store.save_file index v2;
  checki "version 2 loads empty" 0 (Index_cache.size (Index_cache.load_file index));
  let status, out = run_sv (compare_args ~ted ~index) in
  checki "exits 0" 0 status;
  Alcotest.(check string) "same bytes as over no file" fresh out;
  checkb "rewritten at the current version" true
    (Result.is_ok (Index_cache.load (read_file index)))

(* A cache whose svz length header claims about 2^55 bytes is a cold
   start, not an out-of-memory crash. *)
let test_cli_damaged_length_header () =
  with_temp @@ fun ted ->
  with_temp @@ fun index ->
  let damaged = "SVZ1\xff\xff\xff\xff\xff\xff\xff\x3f\x00\x78" in
  write_file ted damaged;
  write_file index damaged;
  let status, out = run_sv (compare_args ~ted ~index) in
  checki "exits 0" 0 status;
  let _, reference =
    with_temp @@ fun t2 -> with_temp @@ fun i2 -> run_sv (compare_args ~ted:t2 ~index:i2)
  in
  Alcotest.(check string) "same answer as a fresh cache" (ledger_free reference)
    (ledger_free out)

let () =
  Alcotest.run "chaos"
    [
      ( "fault-spec",
        [
          Alcotest.test_case "parse round-trip" `Quick test_spec_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          Alcotest.test_case "draw deterministic" `Quick test_draw_deterministic;
        ] );
      ( "pool-chaos",
        [
          Alcotest.test_case "crash storm" `Slow (run_chaos crash_only);
          Alcotest.test_case "hang storm" `Slow (run_chaos hang_only);
          Alcotest.test_case "garbage storm" `Slow (run_chaos garbage_only);
          Alcotest.test_case "torn frames" `Slow (run_chaos trunc_only);
          Alcotest.test_case "combined" `Slow (run_chaos combined);
        ] );
      ( "engine-chaos",
        [
          Alcotest.test_case "faulted matrix identical" `Slow
            test_faulted_matrix_identical;
          Alcotest.test_case "faulted matrix on a generated corpus" `Slow
            test_faulted_matrix_generated;
          Alcotest.test_case "cache never torn under faults" `Slow
            test_cache_under_faults;
          Alcotest.test_case "daemon under faults" `Slow
            test_daemon_under_faults;
        ] );
      ( "store-chaos",
        [
          Alcotest.test_case "writer killed mid-append" `Slow
            test_store_killed_mid_append;
          Alcotest.test_case "two concurrent writers" `Slow test_store_two_writers;
          Alcotest.test_case "all-hit run writes nothing" `Slow test_cli_noop_run;
          Alcotest.test_case "old format replaced" `Slow test_cli_old_format;
          Alcotest.test_case "index cache version 2 is a cold start" `Slow
            test_cli_index_version_2;
          Alcotest.test_case "damaged length header" `Slow
            test_cli_damaged_length_header;
        ] );
    ]
