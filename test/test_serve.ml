(* The sv serve service layer: protocol conformance, differential
   byte-identity against the one-shot path, and a concurrency soak.

   The quick half never opens a socket — it drives the pure codec
   (framing, request/response grammar, the error taxonomy) and the
   engine's payload-in/payload-out step directly. The `Slow half forks
   real daemon processes and talks to them over Unix domain sockets:
   differential runs (resident/warm state must never change a byte),
   eviction-under-pressure identity, and a multi-client soak whose
   oracles are "every request gets exactly one well-formed reply with
   its id", "overload sheds as typed replies, not hangs" and "the serve
   counters are monotone". *)

module P = Sv_serve.Protocol
module Engine = Sv_serve.Engine
module Server = Sv_serve.Server
module Client = Sv_serve.Client
module Apps = Sv_core.Apps
module Pipeline = Sv_core.Pipeline
module J = Sv_jsonx.Jsonx

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let engine ?(jobs = 1) ?(lru_budget = 64 * 1024 * 1024) ?(high_water = 8)
    ?metric_cache_path () =
  Engine.create
    {
      Engine.jobs;
      lru_budget;
      high_water;
      ted_cache_path = None;
      index_cache_path = None;
      metric_cache_path;
      persist_every = 0;
    }

(* --- framing --- *)

let test_frame_roundtrip () =
  let r = P.Reader.create () in
  P.Reader.feed r (P.frame "hello" ^ P.frame "" ^ P.frame "world");
  (match P.Reader.next r with
  | `Frame p -> checks "first frame" "hello" p
  | _ -> Alcotest.fail "expected a frame");
  (match P.Reader.next r with
  | `Frame p -> checks "empty frame is legal" "" p
  | _ -> Alcotest.fail "expected the empty frame");
  (match P.Reader.next r with
  | `Frame p -> checks "third frame" "world" p
  | _ -> Alcotest.fail "expected a frame");
  checkb "then awaiting" true (P.Reader.next r = `Awaiting);
  checki "fully drained" 0 (P.Reader.buffered r)

let test_frame_byte_by_byte () =
  (* frames arrive whole no matter how the transport fragments them *)
  let r = P.Reader.create () in
  let bytes = P.frame "chunky" in
  String.iteri
    (fun i c ->
      checkb
        (Printf.sprintf "awaiting before byte %d" i)
        true
        (P.Reader.next r = `Awaiting);
      P.Reader.feed r (String.make 1 c))
    bytes;
  match P.Reader.next r with
  | `Frame p -> checks "reassembled" "chunky" p
  | _ -> Alcotest.fail "expected the reassembled frame"

let test_frame_truncated () =
  (* a truncated frame is never yielded: the reader just keeps waiting *)
  let r = P.Reader.create () in
  let bytes = P.frame "truncated payload" in
  P.Reader.feed r (String.sub bytes 0 (String.length bytes - 5));
  checkb "awaiting on truncation" true (P.Reader.next r = `Awaiting);
  checkb "still awaiting" true (P.Reader.next r = `Awaiting);
  P.Reader.feed r (String.sub bytes (String.length bytes - 5) 5);
  match P.Reader.next r with
  | `Frame p -> checks "completes once the rest arrives" "truncated payload" p
  | _ -> Alcotest.fail "expected the completed frame"

let test_frame_oversized_sticky () =
  let r = P.Reader.create ~max_frame:8 () in
  P.Reader.feed r (P.frame "123456789");
  (match P.Reader.next r with
  | `Oversized n -> checki "announced size reported" 9 n
  | _ -> Alcotest.fail "expected oversized");
  (* the stream cannot be resynchronised: the verdict is sticky even if
     more (well-formed) bytes arrive *)
  P.Reader.feed r (P.frame "ok");
  match P.Reader.next r with
  | `Oversized _ -> ()
  | _ -> Alcotest.fail "oversized must be sticky"

let test_frame_within_cap () =
  let r = P.Reader.create ~max_frame:8 () in
  P.Reader.feed r (P.frame "12345678");
  match P.Reader.next r with
  | `Frame p -> checks "cap is inclusive" "12345678" p
  | _ -> Alcotest.fail "expected a frame at exactly the cap"

(* --- request/response codec --- *)

let all_requests =
  [
    P.Index { app = "babelstream"; model = "omp" };
    P.Compare { app = "babelstream"; base = "serial"; target = "omp" };
    P.Matrix { app = "tealeaf"; metric = "t_sem" };
    P.Cluster { app = "minibude"; metric = "sloc" };
    P.Nearest
      {
        app = "babelstream";
        model = "omp";
        metric = "t_sem";
        k = 2;
        budget = None;
        epsilon = None;
      };
    P.Nearest
      {
        app = "babelstream";
        model = "omp";
        metric = "t_sem";
        k = 2;
        budget = Some 40;
        epsilon = Some 0.25;
      };
    P.Status;
    P.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match P.decode_request (P.encode_request ~id:7 req) with
      | Ok (Some 7, req') ->
          checkb ("round-trips: " ^ P.verb_of_request req) true (req = req')
      | Ok _ -> Alcotest.failf "id lost for %s" (P.verb_of_request req)
      | Error (_, m) -> Alcotest.failf "rejected own encoding: %s" m)
    all_requests;
  (match P.decode_request (P.encode_request P.Status) with
  | Ok (None, P.Status) -> ()
  | _ -> Alcotest.fail "id-less request must decode with id None");
  match
    P.decode_request {|{"verb":"nearest","app":"a","model":"m","metric":"t_sem"}|}
  with
  | Ok (None, P.Nearest { k = 3; budget = None; epsilon = None; _ }) -> ()
  | _ ->
      Alcotest.fail
        "nearest without \"k\"/\"budget\"/\"epsilon\" must default to an \
         exact k=3 search"

let test_request_taxonomy () =
  let kind payload =
    match P.decode_request payload with
    | Error (k, _) -> Some k
    | Ok _ -> None
  in
  checkb "malformed JSON" true (kind "{nope" = Some P.Bad_json);
  checkb "non-object" true (kind "[1,2]" = Some P.Bad_request);
  checkb "missing verb" true (kind {|{"id":3}|} = Some P.Bad_request);
  checkb "missing fields" true
    (kind {|{"id":4,"verb":"compare","app":"x"}|} = Some P.Bad_request);
  checkb "ill-typed field" true
    (kind {|{"verb":"matrix","app":1,"metric":"sloc"}|} = Some P.Bad_request);
  checkb "unknown verb" true (kind {|{"verb":"frobnicate"}|} = Some P.Unknown_verb);
  (* the id is recoverable whenever the payload parses to an object,
     even though the request itself is rejected *)
  checkb "id recovered from rejected request" true
    (P.request_id {|{"id":4,"verb":"compare","app":"x"}|} = Some 4);
  checkb "no id from malformed JSON" true (P.request_id "{nope" = None)

let test_kind_spelling_bijection () =
  let kinds =
    [
      P.Oversized; P.Bad_json; P.Bad_request; P.Unknown_verb; P.Unknown_app;
      P.Unknown_model; P.Unknown_metric; P.Invalid_request; P.Failed;
    ]
  in
  List.iter
    (fun k ->
      checkb (P.kind_to_string k) true (P.kind_of_string (P.kind_to_string k) = Some k))
    kinds;
  checkb "unknown spelling" true (P.kind_of_string "nope" = None)

let test_response_roundtrip () =
  let responses =
    [
      P.Output { verb = "compare"; warm = true; output = "line one\nline two\n" };
      P.Status_of [ ("requests", J.Int 3); ("served", J.Int 2) ];
      P.Shutdown_ack;
      P.Error { kind = P.Bad_json; message = "unexpected end of input" };
      P.Overloaded { queue = 9; high_water = 8 };
    ]
  in
  List.iter
    (fun resp ->
      match P.decode_response (P.encode_response ~id:(Some 1) resp) with
      | Ok (Some 1, resp') -> checkb "response round-trips" true (resp = resp')
      | Ok _ -> Alcotest.fail "id lost"
      | Error m -> Alcotest.failf "rejected own encoding: %s" m)
    responses;
  match P.decode_response (P.encode_response ~id:None P.Shutdown_ack) with
  | Ok (None, P.Shutdown_ack) -> ()
  | _ -> Alcotest.fail "null id must decode to None"

(* --- engine conformance (socket-free) --- *)

let reply e payload =
  match P.decode_response (Engine.handle_payload e payload) with
  | Ok r -> r
  | Error m -> Alcotest.failf "daemon produced an undecodable reply: %s" m

let test_conformance_errors () =
  let e = engine () in
  (match reply e "{nope" with
  | None, P.Error { kind = P.Bad_json; _ } -> ()
  | _ -> Alcotest.fail "expected bad-json with null id");
  (match reply e {|{"id":5,"verb":"zap"}|} with
  | Some 5, P.Error { kind = P.Unknown_verb; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-verb echoing id 5");
  (match reply e {|{"id":6,"verb":"compare","app":"x"}|} with
  | Some 6, P.Error { kind = P.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "expected bad-request echoing id 6");
  (match
     reply e (P.encode_request ~id:1 (P.Index { app = "nope"; model = "omp" }))
   with
  | Some 1, P.Error { kind = P.Unknown_app; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-app");
  (match
     reply e
       (P.encode_request ~id:2 (P.Index { app = "babelstream"; model = "nope" }))
   with
  | Some 2, P.Error { kind = P.Unknown_model; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-model");
  match
    reply e
      (P.encode_request ~id:3 (P.Matrix { app = "babelstream"; metric = "nope" }))
  with
  | Some 3, P.Error { kind = P.Unknown_metric; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-metric"

let test_conformance_overload_replies () =
  let e = engine () in
  (match
     P.decode_response
       (Engine.shed e ~queue:8 (P.encode_request ~id:9 P.Status))
   with
  | Ok (Some 9, P.Overloaded { queue = 8; high_water = 8 }) -> ()
  | _ -> Alcotest.fail "shed must echo the id in a typed overloaded reply");
  match P.decode_response (Engine.oversized e ~announced:999 ~cap:16) with
  | Ok (None, P.Error { kind = P.Oversized; _ }) -> ()
  | _ -> Alcotest.fail "oversized must be a typed error"

let int_field fields k =
  match List.assoc_opt k fields with
  | Some (J.Int i) -> i
  | _ -> Alcotest.failf "status lacks int field %S" k

let test_conformance_status () =
  let e = engine ~high_water:5 () in
  Engine.set_queue_depth e 3;
  match reply e (P.encode_request ~id:2 P.Status) with
  | Some 2, P.Status_of fields ->
      checki "queue depth reported" 3 (int_field fields "queue_depth");
      checki "high water reported" 5 (int_field fields "high_water");
      checki "jobs reported" 1 (int_field fields "jobs");
      checkb "serve counters present" true
        (List.for_all
           (fun k -> List.mem_assoc k fields)
           [ "requests"; "served"; "errors"; "overloaded"; "bytes_in";
             "bytes_out"; "warm_hits"; "cold_misses"; "usec_total" ]);
      checkb "cache stats present" true
        (List.for_all
           (fun k -> List.mem_assoc k fields)
           [ "lru_entries"; "lru_bytes"; "lru_budget"; "lru_evictions";
             "index_entries"; "ted_entries"; "metric_entries"; "vp_entries" ])
  | _ -> Alcotest.fail "expected a status reply"

let test_conformance_shutdown () =
  let e = engine () in
  checkb "running" false (Engine.shutting_down e);
  (match reply e (P.encode_request ~id:3 P.Shutdown) with
  | Some 3, P.Shutdown_ack -> ()
  | _ -> Alcotest.fail "expected a shutdown ack");
  checkb "flagged" true (Engine.shutting_down e)

let compare_req =
  P.Compare { app = "babelstream"; base = "serial"; target = "omp" }

let babel_codebase model =
  let cbs = Option.get (Apps.corpus_of_app "babelstream") in
  Option.get (Apps.find_codebase ~app:"babelstream" cbs model)

let output_reply e ?id req =
  match reply e (P.encode_request ?id req) with
  | _, P.Output { verb; warm; output } ->
      checks "verb echoed" (P.verb_of_request req) verb;
      (warm, output)
  | _, P.Error { kind; message } ->
      Alcotest.failf "unexpected error %s: %s" (P.kind_to_string kind) message
  | _ -> Alcotest.fail "expected an output reply"

let test_conformance_compare () =
  let e = engine () in
  let warm1, out1 = output_reply e ~id:1 compare_req in
  checkb "first evaluation is cold" false warm1;
  let warm2, out2 = output_reply e ~id:2 compare_req in
  checkb "second evaluation is warm" true warm2;
  checks "warm output byte-identical to cold" out1 out2;
  (* golden: the daemon's bytes are exactly what an independent one-shot
     evaluation through the plain pipeline renders *)
  let bix = Pipeline.index (babel_codebase "serial") in
  let tix = Pipeline.index (babel_codebase "omp") in
  checks "matches the one-shot render"
    (Engine.render_compare ~app:"babelstream" ~base:"serial" ~target:"omp" bix
       tix)
    out1

let test_conformance_index () =
  let e = engine () in
  let _, out = output_reply e ~id:1 (P.Index { app = "babelstream"; model = "omp" }) in
  checks "matches the one-shot render"
    (Engine.render_index (Pipeline.index (babel_codebase "omp")))
    out;
  checkb "verification verdict present" true
    (contains ~sub:"built-in verification:" out)

let test_eviction_reload_identity () =
  (* a 1-byte budget makes every admission evict its predecessor: each
     repeat must come back from the index cache, which holds every
     resident (a decode, not a re-index), and the bytes must never
     change *)
  let e = engine ~lru_budget:1 () in
  let _, out1 = output_reply e compare_req in
  let _, out2 = output_reply e compare_req in
  let _, out3 = output_reply e compare_req in
  checks "reload after eviction is byte-identical (1)" out1 out2;
  checks "reload after eviction is byte-identical (2)" out1 out3;
  match reply e (P.encode_request P.Status) with
  | _, P.Status_of fields ->
      checkb "evictions actually happened" true
        (int_field fields "lru_evictions" > 0);
      checkb "evicted codebases were reloaded from the index cache" true
        (int_field fields "index_hits" > 0)
  | _ -> Alcotest.fail "expected a status reply"

(* Each resident is charged the byte length of its trees record: after
   a fixed request sequence, lru_bytes is the sum of the encoded trees
   records of the resident codebases, encoded here independently. With
   a 1-byte budget only the last admitted codebase stays resident. *)
let test_lru_bytes_are_trees_records () =
  let cbs = Option.get (Apps.corpus_of_app "babelstream") in
  let record_bytes cb =
    String.length
      (Sv_msgpack.Msgpack.encode
         (Sv_core.Index_engine.indexed_to_msgpack (Pipeline.index ~run:false cb)))
  in
  let lru_bytes ~lru_budget =
    let e = engine ~lru_budget () in
    List.iter
      (fun req -> ignore (output_reply e req))
      [
        compare_req;
        P.Nearest
          { app = "babelstream"; model = "serial"; metric = "t_sem"; k = 3;
            budget = None; epsilon = None };
        P.Index { app = "babelstream"; model = "omp" };
      ];
    match reply e (P.encode_request P.Status) with
    | _, P.Status_of fields -> int_field fields "lru_bytes"
    | _ -> Alcotest.fail "expected a status reply"
  in
  checki "every babelstream port resident"
    (List.fold_left (fun acc cb -> acc + record_bytes cb) 0 cbs)
    (lru_bytes ~lru_budget:(64 * 1024 * 1024));
  checki "only the last admitted port resident"
    (record_bytes (babel_codebase "omp"))
    (lru_bytes ~lru_budget:1)

(* --- nearest: validation, resident index memo, persisted metric cache --- *)

let nearest_spec = "gen:grow:serial,omp:7:12"

let nearest_req ?budget ?epsilon ?(k = 3) model =
  P.Nearest { app = nearest_spec; model; metric = "t_sem"; k; budget; epsilon }

let test_invalid_request () =
  let e = engine () in
  let expect_invalid name req =
    match reply e (P.encode_request ~id:1 req) with
    | Some 1, P.Error { kind = P.Invalid_request; _ } -> ()
    | _, P.Error { kind; _ } ->
        Alcotest.failf "%s: wrong kind %s" name (P.kind_to_string kind)
    | _ -> Alcotest.failf "%s: expected invalid-request" name
  in
  expect_invalid "k = 0" (nearest_req ~k:0 "omp");
  expect_invalid "negative k" (nearest_req ~k:(-3) "omp");
  expect_invalid "negative budget" (nearest_req ~budget:(-1) "omp");
  expect_invalid "negative epsilon" (nearest_req ~epsilon:(-0.5) "omp");
  (* validation happens before app/model resolution: an out-of-domain
     value is classified as such, not as whatever lookup fails first *)
  expect_invalid "k = 0 beats unknown app"
    (P.Nearest
       {
         app = "nope";
         model = "m";
         metric = "t_sem";
         k = 0;
         budget = None;
         epsilon = None;
       })

let test_nearest_memo_and_approx () =
  let e = engine () in
  let cbs = Option.get (Apps.corpus_of_app nearest_spec) in
  let q = (List.hd cbs).Sv_corpus.Emit.model in
  let _, out1 = output_reply e ~id:1 (nearest_req q) in
  let _, out2 = output_reply e ~id:2 (nearest_req q) in
  checks "repeat nearest byte-identical" out1 out2;
  (match reply e (P.encode_request P.Status) with
  | _, P.Status_of fields ->
      checkb "second request reused the resident index" true
        (int_field fields "vp_hits" >= 1);
      checkb "index resident" true (int_field fields "vp_entries" >= 1)
  | _ -> Alcotest.fail "expected a status reply");
  (* golden: the daemon's bytes are exactly the one-shot render through
     an independent pipeline (no shared engine state) *)
  let ixs = List.map Pipeline.index cbs in
  let qix = List.hd ixs in
  let m = Option.get (Sv_core.Tbmd.metric_of_string "t_sem") in
  checks "matches the one-shot render"
    (Engine.render_nearest ~app:nearest_spec ~model:q ~k:3 m qix ixs)
    out1;
  (* an unconstraining budget keeps the search exact and says so *)
  let _, out_b = output_reply e ~id:3 (nearest_req ~budget:1_000_000 q) in
  checkb "unconstraining budget claims exactness" true
    (contains ~sub:"guaranteed_exact=true" out_b);
  (* a zero budget cannot claim exactness *)
  let _, out0 = output_reply e ~id:4 (nearest_req ~budget:0 q) in
  checkb "exhausted budget is confessed" true
    (contains ~sub:"guaranteed_exact=false" out0)

let test_metric_cache_warm_restart () =
  let path = Filename.temp_file "sv_metric_cache" ".svz" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let cbs = Option.get (Apps.corpus_of_app nearest_spec) in
  let q = (List.hd cbs).Sv_corpus.Emit.model in
  let e1 = engine ~metric_cache_path:path () in
  let _, out1 = output_reply e1 ~id:1 (nearest_req q) in
  Engine.persist e1;
  checkb "metric cache persisted" true (Sys.file_exists path);
  (* a fresh engine on the same path = a daemon restart: the index must
     come back from the persisted cache (a decode, not a rebuild) with
     byte-identical answers *)
  let e2 = engine ~metric_cache_path:path () in
  let _, out2 = output_reply e2 ~id:1 (nearest_req q) in
  checks "warm restart byte-identical" out1 out2;
  match reply e2 (P.encode_request P.Status) with
  | _, P.Status_of fields ->
      checkb "restart reloaded the persisted index" true
        (int_field fields "metric_hits" >= 1)
  | _ -> Alcotest.fail "expected a status reply"

(* --- daemon fixtures (`Slow) --- *)

let temp_socket () =
  let path = Filename.temp_file "sv_serve_test" ".sock" in
  Sys.remove path;
  path

(* Run [f socket c] against a forked daemon, [c] a connection to it. A
   clean run shuts the daemon down over the wire and expects it to exit
   0. Any failure, in [f], in bringing the daemon up or in the shutdown,
   SIGKILLs and reaps it first, so a failed check cannot leave an orphan
   holding the test runner's output open. *)
let with_daemon ?(high_water = 8) f =
  let socket = temp_socket () in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       (* the child inherits whatever serve counters the in-process
          conformance tests accumulated; a daemon starts at zero *)
       Sv_perf.Telemetry.reset_serve ();
       Server.serve ~socket
         (Engine.create
            {
              (Engine.default_config ()) with
              Engine.high_water;
              ted_cache_path = None;
              index_cache_path = None;
              persist_every = 0;
            })
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
  match
    let c = wait 200 in
    f socket c;
    match Client.call c P.Shutdown with
    | Ok P.Shutdown_ack -> Client.close c
    | Ok _ -> Alcotest.fail "expected a shutdown ack"
    | Error e -> Alcotest.failf "shutdown failed: %s" e
  with
  | () -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon exited abnormally")
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

let daemon_output c req =
  match Client.call c req with
  | Ok (P.Output { output; _ }) -> output
  | Ok (P.Error { kind; message }) ->
      Alcotest.failf "daemon error %s: %s" (P.kind_to_string kind) message
  | Ok _ -> Alcotest.fail "expected an output reply"
  | Error e -> Alcotest.failf "call failed: %s" e

(* --- differential byte-identity over a real socket (`Slow) --- *)

let test_daemon_differential () =
  (* the high-water mark admits every pipelined request below *)
  with_daemon ~high_water:64 (fun socket c ->
      (* independent one-shot evaluation in this (parent) process: fresh
         pipeline, no shared state with the daemon *)
      let bix = Pipeline.index (babel_codebase "serial") in
      let tix = Pipeline.index (babel_codebase "omp") in
      let expect =
        Engine.render_compare ~app:"babelstream" ~base:"serial" ~target:"omp"
          bix tix
      in
      checks "daemon compare matches one-shot" expect
        (daemon_output c compare_req);
      checks "warm rerun identical" expect (daemon_output c compare_req);
      (* pipelined: four clients each keep four compares in flight, and
         every reply is still the one-shot bytes *)
      let conns =
        Array.init 4 (fun _ ->
            match Client.connect ~socket ~timeout_s:120. () with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect failed: %s" e)
      in
      Array.iter
        (fun c ->
          for _ = 1 to 4 do
            match Client.send c compare_req with
            | Ok () -> ()
            | Error e -> Alcotest.failf "send failed: %s" e
          done)
        conns;
      Array.iter
        (fun c ->
          for _ = 1 to 4 do
            match Client.recv c with
            | Ok (_, P.Output { output; _ }) ->
                checks "pipelined compare matches one-shot" expect output
            | Ok _ -> Alcotest.fail "expected an output reply"
            | Error e -> Alcotest.failf "recv failed: %s" e
          done)
        conns;
      Array.iter Client.close conns;
      let fixs =
        List.map Pipeline.index (Option.get (Apps.corpus_of_app "babelstream-f"))
      in
      let m = Option.get (Sv_core.Tbmd.metric_of_string "t_sem") in
      let matrix_req = P.Matrix { app = "babelstream-f"; metric = "t_sem" } in
      let cluster_req = P.Cluster { app = "babelstream-f"; metric = "t_sem" } in
      checks "daemon matrix matches one-shot"
        (Engine.render_matrix m fixs)
        (daemon_output c matrix_req);
      checks "daemon cluster matches one-shot"
        (Engine.render_cluster m fixs)
        (daemon_output c cluster_req);
      checks "warm cluster identical"
        (Engine.render_cluster m fixs)
        (daemon_output c cluster_req))

(* --- concurrency soak (`Slow) --- *)

let monotone_keys =
  [
    "connections"; "requests"; "served"; "errors"; "overloaded"; "queue_peak";
    "bytes_in"; "bytes_out"; "warm_hits"; "cold_misses"; "usec_total";
  ]

let status_fields c =
  match Client.call c P.Status with
  | Ok (P.Status_of fields) -> fields
  | Ok _ -> Alcotest.fail "expected a status reply"
  | Error e -> Alcotest.failf "status failed: %s" e

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let test_soak () =
  with_daemon ~high_water:2 (fun socket c0 ->
      let before = status_fields c0 in
      (* phase 1: six clients, ten interleaved rounds each; every request
         must come back as exactly one well-formed reply carrying its id
         (a torn frame or lost request would fail decode or hang into the
         receive timeout). Sheds are legal — they are typed and counted. *)
      let conns =
        Array.init 6 (fun _ ->
            match Client.connect ~socket ~timeout_s:120. () with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect failed: %s" e)
      in
      let ok = ref 0 and shed = ref 0 in
      let rounds = 10 in
      for r = 0 to rounds - 1 do
        Array.iteri
          (fun i c ->
            match Client.send c ~id:((r * 100) + i) P.Status with
            | Ok () -> ()
            | Error e -> Alcotest.failf "send failed: %s" e)
          conns;
        Array.iteri
          (fun i c ->
            match Client.recv c with
            | Ok (Some id, P.Status_of _) ->
                checki "reply id echoes the request" ((r * 100) + i) id;
                incr ok
            | Ok (Some id, P.Overloaded _) ->
                checki "shed reply id echoes the request" ((r * 100) + i) id;
                incr shed
            | Ok _ -> Alcotest.fail "unexpected reply class"
            | Error e -> Alcotest.failf "recv failed: %s" e)
          conns
      done;
      Array.iter Client.close conns;
      checki "every request answered exactly once" (6 * rounds) (!ok + !shed);
      (* phase 2: a single-write pipelined burst far beyond the
         high-water mark. Admission control must shed the excess as
         immediate typed overloaded replies — not queue it, not hang. *)
      let burst_n = 40 in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.;
      write_all fd
        (String.concat ""
           (List.init burst_n (fun i ->
                P.frame (P.encode_request ~id:(1000 + i) P.Status))));
      let reader = P.Reader.create () in
      let buf = Bytes.create 65536 in
      let burst_ok = ref 0 and burst_shed = ref 0 and seen = ref [] in
      let rec read_replies () =
        if !burst_ok + !burst_shed < burst_n then
          match P.Reader.next reader with
          | `Frame payload ->
              (match P.decode_response payload with
              | Ok (Some id, P.Status_of _) ->
                  seen := id :: !seen;
                  incr burst_ok
              | Ok (Some id, P.Overloaded { high_water; _ }) ->
                  checki "sheds carry the configured mark" 2 high_water;
                  seen := id :: !seen;
                  incr burst_shed
              | Ok _ -> Alcotest.fail "unexpected burst reply"
              | Error e -> Alcotest.failf "torn/invalid reply frame: %s" e);
              read_replies ()
          | `Oversized _ -> Alcotest.fail "oversized reply"
          | `Awaiting -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> Alcotest.fail "daemon closed mid-burst"
              | n ->
                  P.Reader.feed reader (Bytes.sub_string buf 0 n);
                  read_replies ())
      in
      read_replies ();
      Unix.close fd;
      checki "burst fully answered" burst_n (!burst_ok + !burst_shed);
      checkb "admission control shed some of the burst" true (!burst_shed > 0);
      checkb "but admitted some too" true (!burst_ok > 0);
      checkb "all burst ids distinct and echoed" true
        (List.sort_uniq compare !seen = List.init burst_n (fun i -> 1000 + i));
      (* phase 3: the serve counters are monotone, and every received
         request is accounted to exactly one reply class. The +1 closes
         the books on the status request reporting itself: it is counted
         received, its own reply is not yet. *)
      let after = status_fields c0 in
      List.iter
        (fun k ->
          checkb
            (Printf.sprintf "counter %s is monotone" k)
            true
            (int_field after k >= int_field before k))
        monotone_keys;
      checki "requests = served + errors + overloaded + 1"
        (int_field after "requests")
        (int_field after "served" + int_field after "errors"
        + int_field after "overloaded" + 1);
      checkb "queue peak observed" true (int_field after "queue_peak" >= 2))

(* --- generator-driven soak (`Slow) --- *)

(* A daemon serving a 200-variant synthetic corpus (resolved through the
   Apps "gen:" registry hook) under admission pressure: four clients keep
   two index requests each in flight against high_water = 2, so sheds are
   part of normal service. Oracles: every variant's daemon render is
   byte-identical to an independent in-process evaluation; shed requests
   are retried without ever recomputing (cold evaluations = corpus size
   exactly); and a second pass over sampled variants is served entirely
   warm with unchanged bytes. *)

let gen_spec = "gen:grow:serial,omp:11:200"

let test_gen_soak () =
  let cbs = Option.get (Apps.corpus_of_app gen_spec) in
  let n = List.length cbs in
  checki "corpus size" 200 n;
  let models =
    Array.of_list (List.map (fun cb -> cb.Sv_corpus.Emit.model) cbs)
  in
  let goldens =
    Array.of_list (List.map (fun cb -> Engine.render_index (Pipeline.index cb)) cbs)
  in
  with_daemon ~high_water:2 (fun socket c0 ->
      let nclients = 4 in
      let conns =
        Array.init nclients (fun _ ->
            match Client.connect ~socket ~timeout_s:120. () with
            | Ok c -> c
            | Error e -> Alcotest.failf "connect failed: %s" e)
      in
      let outputs = Array.make n None in
      let sheds = ref 0 and answered = ref 0 in
      (* client i owns variants congruent to i; the id wires each reply
         back to its variant *)
      let pending =
        Array.init nclients (fun i ->
            ref (List.filter (fun k -> k mod nclients = i) (List.init n Fun.id)))
      in
      let inflight = Array.make nclients [] in
      let send_next i =
        match !(pending.(i)) with
        | [] -> ()
        | k :: rest -> (
            pending.(i) := rest;
            match
              Client.send conns.(i) ~id:k
                (P.Index { app = gen_spec; model = models.(k) })
            with
            | Ok () -> inflight.(i) <- k :: inflight.(i)
            | Error e -> Alcotest.failf "send failed: %s" e)
      in
      Array.iteri
        (fun i _ ->
          send_next i;
          send_next i)
        conns;
      while !answered < n do
        for i = 0 to nclients - 1 do
          if inflight.(i) <> [] then begin
            (match Client.recv conns.(i) with
            | Ok (Some id, P.Output { verb; output; _ }) ->
                checks "verb echoed" "index" verb;
                if not (List.mem id inflight.(i)) then
                  Alcotest.failf "reply id %d was not in flight" id;
                inflight.(i) <- List.filter (fun k -> k <> id) inflight.(i);
                (match outputs.(id) with
                | Some _ -> Alcotest.failf "variant %s answered twice" models.(id)
                | None -> outputs.(id) <- Some output);
                incr answered
            | Ok (Some id, P.Overloaded { high_water; _ }) ->
                checki "sheds carry the configured mark" 2 high_water;
                inflight.(i) <- List.filter (fun k -> k <> id) inflight.(i);
                pending.(i) := id :: !(pending.(i));
                incr sheds
            | Ok (_, P.Error { kind; message }) ->
                Alcotest.failf "daemon error %s: %s" (P.kind_to_string kind)
                  message
            | Ok _ -> Alcotest.fail "unexpected reply class"
            | Error e -> Alcotest.failf "recv failed: %s" e);
            send_next i
          end
        done
      done;
      Array.iter Client.close conns;
      Array.iteri
        (fun k out ->
          match out with
          | Some out ->
              if out <> goldens.(k) then
                Alcotest.failf "variant %s: daemon bytes differ from one-shot"
                  models.(k)
          | None -> Alcotest.failf "variant %s never answered" models.(k))
        outputs;
      (* cache conservation: sheds + retries must not have recomputed
         anything — exactly one cold evaluation per variant... *)
      let fields = status_fields c0 in
      checki "cold evaluations = corpus size" n (int_field fields "cold_misses");
      checkb "the daemon actually shed under pressure" true (!sheds > 0);
      checkb "queue pressure reached the mark" true
        (int_field fields "queue_peak" >= 2);
      (* ...and a revisit is pure cache: warm replies, unchanged bytes *)
      List.iter
        (fun k ->
          match
            Client.call c0 (P.Index { app = gen_spec; model = models.(k) })
          with
          | Ok (P.Output { warm; output; _ }) ->
              checkb "second pass is warm" true warm;
              if output <> goldens.(k) then
                Alcotest.failf "variant %s: warm bytes changed" models.(k)
          | Ok (P.Error { kind; message }) ->
              Alcotest.failf "daemon error %s: %s" (P.kind_to_string kind) message
          | Ok _ -> Alcotest.fail "expected an output reply"
          | Error e -> Alcotest.failf "call failed: %s" e)
        [ 0; 13; 59; 101; 137; 199 ])

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte-by-byte reassembly" `Quick
            test_frame_byte_by_byte;
          Alcotest.test_case "truncated frame waits" `Quick test_frame_truncated;
          Alcotest.test_case "oversized is sticky" `Quick
            test_frame_oversized_sticky;
          Alcotest.test_case "cap is inclusive" `Quick test_frame_within_cap;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "error taxonomy" `Quick test_request_taxonomy;
          Alcotest.test_case "kind spellings" `Quick test_kind_spelling_bijection;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "typed errors" `Quick test_conformance_errors;
          Alcotest.test_case "overload replies" `Quick
            test_conformance_overload_replies;
          Alcotest.test_case "status" `Quick test_conformance_status;
          Alcotest.test_case "shutdown" `Quick test_conformance_shutdown;
          Alcotest.test_case "compare golden + warm identity" `Quick
            test_conformance_compare;
          Alcotest.test_case "index golden" `Quick test_conformance_index;
          Alcotest.test_case "lru bytes are trees records" `Quick
            test_lru_bytes_are_trees_records;
          Alcotest.test_case "eviction + reload identity" `Quick
            test_eviction_reload_identity;
          Alcotest.test_case "invalid-request taxonomy" `Quick
            test_invalid_request;
          Alcotest.test_case "nearest memo + approximate ledger" `Quick
            test_nearest_memo_and_approx;
          Alcotest.test_case "metric cache warm restart" `Quick
            test_metric_cache_warm_restart;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "differential byte-identity" `Slow
            test_daemon_differential;
          Alcotest.test_case "concurrency soak" `Slow test_soak;
          Alcotest.test_case "generated-corpus soak (200 variants)" `Slow
            test_gen_soak;
        ] );
    ]
