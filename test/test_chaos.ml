(* Chaos suite: the persistent store under killed and concurrent
   writers, the CLI over damaged or outdated cache files, and the
   parallel engine (a `sv serve` daemon whose matrices run on domains,
   the CLI at `-j 2`) against the serial answer, byte for byte. The
   `cli` group pins the one-shot CLI's cache ledger and typed errors,
   which it takes from the engine it evaluates on.

   This suite forks writers and daemons, and OCaml 5.1 refuses
   [Unix.fork] in a process that has ever spawned a domain: nothing in
   this process may run a matrix at jobs >= 2 (a forked child may).
   It runs under `dune runtest` but is left out of the `@quick`
   alias. *)

module M = Sv_msgpack.Msgpack
module Pipeline = Sv_core.Pipeline
module Tbmd = Sv_core.Tbmd
module Ted_cache = Sv_db.Codebase_db.Ted_cache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- the parallel engine against the serial one --- *)

(* A `sv serve` daemon at jobs 3 answers byte-identically on the wire to
   a serial evaluation in this process. The daemon is forked before any
   domain exists; its matrices spawn domains in the child only. *)
let test_daemon_jobs_identical () =
  let module Engine = Sv_serve.Engine in
  let module Server = Sv_serve.Server in
  let module Client = Sv_serve.Client in
  let module P = Sv_serve.Protocol in
  let cbs = Option.get (Sv_core.Apps.corpus_of_app "babelstream") in
  let find m = Option.get (Sv_core.Apps.find_codebase ~app:"babelstream" cbs m) in
  (* serial references, computed in this (parent) process *)
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
       (* the child inherits the parent's divergence memo; clear it, or
          every matrix cell would be a memo hit and no domain would run *)
       Tbmd.clear_memo ();
       Sv_perf.Telemetry.reset_serve ();
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
  (* a failed check must not leave the daemon holding the test's output *)
  (try
     Alcotest.(check string)
       "daemon compare identical to serial" expect_compare
       (output compare_req);
     Alcotest.(check string)
       "daemon matrix identical to serial" expect_matrix
       (output matrix_req);
     Alcotest.(check string)
       "warm rerun still identical" expect_compare (output compare_req)
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     raise e);
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

(* Run sv with [args]: exit status, stdout and stderr. *)
let run_sv_full args =
  let out = Filename.temp_file "sv_chaos_out" ".txt" in
  let err = Filename.temp_file "sv_chaos_err" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let efd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process sv_exe (Array.of_list (sv_exe :: args)) Unix.stdin fd efd
  in
  Unix.close fd;
  Unix.close efd;
  let status = match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1 in
  (status, read_file out, read_file err)

let run_sv args =
  let status, out, _ = run_sv_full args in
  (status, out)

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

(* `sv cluster` at -j 2 runs its DPs on domains. Its stdout, ledger
   lines included, and the TED cache file it leaves are those of -j 1,
   cold and warm; the warm rerun hits every pair. *)
let test_cli_jobs_identical () =
  with_temp @@ fun ted ->
  with_temp @@ fun index ->
  let runs jobs =
    write_file ted "";
    write_file index "";
    let run () =
      let status, out =
        run_sv
          [ "cluster"; "-a"; "babelstream"; "-m"; "t_sem"; "-j"; jobs;
            "--ted-cache"; ted; "--index-cache"; index ]
      in
      checki ("-j " ^ jobs ^ " exits 0") 0 status;
      (out, read_file ted)
    in
    let cold = run () in
    (cold, run ())
  in
  let (cold1, ted1), (warm1, ted1') = runs "1" in
  let (cold2, ted2), (warm2, ted2') = runs "2" in
  Alcotest.(check string) "cold stdout" cold1 cold2;
  Alcotest.(check string) "cold ted cache file" ted1 ted2;
  Alcotest.(check string) "warm stdout" warm1 warm2;
  Alcotest.(check string) "warm ted cache file" ted1' ted2';
  checkb "the warm run hits every pair" true
    (List.mem "ted-cache: 45 entries, 45 hits / 0 misses this run, 0 new"
       (List.map
          (fun l -> List.hd (String.split_on_char '(' l) |> String.trim)
          (String.split_on_char '\n' warm2)))

(* --- the one-shot CLI as engine requests --- *)

let nearest_table =
  {|nearest babelstream: serial (T_sem, k=3)
┌────────┬────────┬─────┬────────────┐
│ model  │ name   │ d   │ normalised │
├────────┼────────┼─────┼────────────┤
│ omp    │ OpenMP │ 53  │ 0.117      │
│ stdpar │ StdPar │ 154 │ 0.308      │
│ tbb    │ TBB    │ 194 │ 0.331      │
└────────┴────────┴─────┴────────────┘
index evaluations: 5 of 9 candidates
|}

(* `sv nearest --metric-cache F` prints the table and then the ledger
   line: a cold run builds and stores the VP-tree, a warm rerun reloads
   it and writes nothing. *)
let test_cli_nearest_metric_cache () =
  with_temp @@ fun path ->
  Sys.remove path;
  let run () =
    run_sv
      [ "nearest"; "-a"; "babelstream"; "--model"; "serial"; "-m"; "t_sem";
        "-k"; "3"; "--metric-cache"; path ]
  in
  let status, cold = run () in
  checki "cold run exits 0" 0 status;
  Alcotest.(check string) "cold table and ledger"
    (nearest_table
    ^ Printf.sprintf
        "metric-cache: 1 entries, 0 hits / 1 misses this run, 1 new (saved to %s)\n"
        path)
    cold;
  let stored = read_file path in
  let status, warm = run () in
  checki "warm run exits 0" 0 status;
  Alcotest.(check string) "warm table and ledger"
    (nearest_table
    ^ Printf.sprintf
        "metric-cache: 1 entries, 1 hits / 0 misses this run, 0 new (saved to %s)\n"
        path)
    warm;
  Alcotest.(check string) "warm run leaves the file as it was" stored
    (read_file path)

(* A request the engine refuses exits non-zero with the engine's typed
   message on stderr and nothing on stdout. *)
let test_cli_typed_errors () =
  List.iter
    (fun (args, expect) ->
      let status, out, err = run_sv_full args in
      let cmd = String.concat " " args in
      checkb (cmd ^ ": non-zero exit") true (status <> 0);
      Alcotest.(check string) (cmd ^ ": no output") "" out;
      Alcotest.(check string) (cmd ^ ": message") ("sv: " ^ expect ^ "\n") err)
    [
      ( [ "compare"; "-a"; "nope"; "-b"; "serial"; "-t"; "omp" ],
        "unknown-app: unknown app \"nope\" (expected one of: babelstream, \
         babelstream-f, tealeaf, cloverleaf, minibude)" );
      ( [ "compare"; "-a"; "babelstream"; "-b"; "serial"; "-t"; "nope" ],
        "unknown-model: app babelstream has no model nope" );
      ( [ "cluster"; "-a"; "babelstream"; "-m"; "nope" ],
        "unknown-metric: unknown metric \"nope\"" );
      ( [ "nearest"; "-a"; "babelstream"; "--model"; "serial"; "-k"; "0" ],
        "invalid-request: k must be at least 1 (got 0)" );
      ( [ "nearest"; "-a"; "babelstream"; "--model"; "serial"; "--budget=-1" ],
        "invalid-request: budget must be non-negative (got -1)" );
    ]

let () =
  Alcotest.run "chaos"
    [
      ( "engine-chaos",
        [
          Alcotest.test_case "daemon at three jobs equals serial" `Slow
            test_daemon_jobs_identical;
          Alcotest.test_case "cluster -j 2 identical to -j 1" `Slow
            test_cli_jobs_identical;
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
      ( "cli",
        [
          Alcotest.test_case "nearest metric cache cold then warm" `Slow
            test_cli_nearest_metric_cache;
          Alcotest.test_case "typed errors exit non-zero" `Slow
            test_cli_typed_errors;
        ] );
    ]
