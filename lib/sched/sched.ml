module M = Sv_msgpack.Msgpack

let default_jobs () =
  match Sys.getenv_opt "SV_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* --- deterministic fault injection ---------------------------------- *)

module Fault = struct
  type spec = {
    crash : float;
    hang : float;
    garbage : float;
    trunc : float;
    seed : int;
  }

  let none = { crash = 0.0; hang = 0.0; garbage = 0.0; trunc = 0.0; seed = 0 }

  let is_none s =
    s.crash = 0.0 && s.hang = 0.0 && s.garbage = 0.0 && s.trunc = 0.0

  let to_string s =
    if is_none s then "none"
    else
      let rate k v = if v > 0.0 then Some (Printf.sprintf "%s:%g" k v) else None in
      String.concat ","
        (List.filter_map Fun.id
           [
             rate "crash" s.crash;
             rate "hang" s.hang;
             rate "garbage" s.garbage;
             rate "trunc" s.trunc;
             Some (Printf.sprintf "seed:%d" s.seed);
           ])

  let parse s =
    let fields =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun f -> f <> "")
    in
    let rec go spec = function
      | [] ->
          if spec.crash +. spec.hang +. spec.garbage +. spec.trunc > 1.0 then
            Error "fault rates sum to more than 1"
          else Ok spec
      | field :: rest -> (
          match String.index_opt field ':' with
          | None ->
              Error
                (Printf.sprintf "bad fault field %S (expected key:value)" field)
          | Some i ->
              let k = String.trim (String.sub field 0 i) in
              let v =
                String.trim
                  (String.sub field (i + 1) (String.length field - i - 1))
              in
              let rate set =
                match float_of_string_opt v with
                | Some r when r >= 0.0 && r <= 1.0 -> go (set r) rest
                | _ ->
                    Error
                      (Printf.sprintf "bad rate %S for %s (expected 0..1)" v k)
              in
              (match k with
              | "crash" -> rate (fun r -> { spec with crash = r })
              | "hang" -> rate (fun r -> { spec with hang = r })
              | "garbage" -> rate (fun r -> { spec with garbage = r })
              | "trunc" -> rate (fun r -> { spec with trunc = r })
              | "seed" -> (
                  match int_of_string_opt v with
                  | Some seed -> go { spec with seed } rest
                  | None -> Error (Printf.sprintf "bad seed %S" v))
              | _ ->
                  Error
                    (Printf.sprintf
                       "unknown fault key %S (crash|hang|garbage|trunc|seed)" k)))
    in
    go none fields

  let of_env_exn () =
    match Sys.getenv_opt "SV_FAULT" with
    | None -> none
    | Some s -> (
        match parse s with
        | Ok spec -> spec
        | Error e -> failwith ("SV_FAULT: " ^ e))

  let override = ref None
  let env_spec = lazy (of_env_exn ())
  let set s = override := Some s
  let clear () = override := None

  let active () =
    match !override with Some s -> s | None -> Lazy.force env_spec

  type action = Pass | Crash | Hang | Garbage | Trunc

  (* splitmix64-style avalanche; the draw is a pure function of
     (seed, task, attempt), so which worker happens to run a task — or
     how often the batch is re-run — never changes the injected faults. *)
  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let uniform spec ~task ~attempt =
    let open Int64 in
    let h = mix64 (add (of_int spec.seed) 0x9E3779B97F4A7C15L) in
    let h = mix64 (logxor h (mul (of_int (task + 1)) 0xD1B54A32D192ED03L)) in
    let h = mix64 (logxor h (mul (of_int (attempt + 1)) 0x8CB92BA72F3D8DD7L)) in
    Int64.to_float (shift_right_logical h 11) /. 9007199254740992.0

  let draw spec ~task ~attempt =
    if is_none spec then Pass
    else
      let u = uniform spec ~task ~attempt in
      let c1 = spec.crash in
      let c2 = c1 +. spec.hang in
      let c3 = c2 +. spec.garbage in
      let c4 = c3 +. spec.trunc in
      if u < c1 then Crash
      else if u < c2 then Hang
      else if u < c3 then Garbage
      else if u < c4 then Trunc
      else Pass
end

(* --- recovery policy and accounting ---------------------------------- *)

type policy = {
  task_timeout : float;
  max_retries : int;
  backoff : float;
  degrade : bool;
}

let default_policy () =
  let task_timeout =
    match Sys.getenv_opt "SV_TASK_TIMEOUT" with
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some t -> t
        | None -> 20.0)
    | None -> 20.0
  in
  { task_timeout; max_retries = 2; backoff = 0.05; degrade = true }

type stats = {
  mutable crashes : int;
  mutable timeouts : int;
  mutable corrupt : int;
  mutable retries : int;
  mutable respawns : int;
  mutable degraded : int;
}

let fresh_stats () =
  { crashes = 0; timeouts = 0; corrupt = 0; retries = 0; respawns = 0; degraded = 0 }

let last = ref (fresh_stats ())
let last_stats () = !last

let stats_to_string s =
  Printf.sprintf
    "crashes:%d timeouts:%d corrupt:%d retries:%d respawns:%d degraded:%d"
    s.crashes s.timeouts s.corrupt s.retries s.respawns s.degraded

type failure =
  | Crashed of string
  | Timed_out of float
  | Corrupt_frame of string
  | Task_raised of string

let failure_to_string = function
  | Crashed detail -> Printf.sprintf "worker crashed (%s)" detail
  | Timed_out t -> Printf.sprintf "task exceeded its %gs timeout" t
  | Corrupt_frame msg -> Printf.sprintf "corrupt result frame: %s" msg
  | Task_raised msg -> Printf.sprintf "task raised: %s" msg

exception Worker_failed of { task : int; attempts : int; failure : failure }

let () =
  Printexc.register_printer (function
    | Worker_failed { task; attempts; failure } ->
        Some
          (Printf.sprintf "Sv_sched.Sched.Worker_failed(task %d, %d attempt%s: %s)"
             task attempts
             (if attempts = 1 then "" else "s")
             (failure_to_string failure))
    | _ -> None)

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* --- pipe framing ---------------------------------------------------- *)

(* Each frame is a 4-byte big-endian length followed by one msgpack
   value. Writes under PIPE_BUF would be atomic anyway, but both ends
   loop regardless so oversized results (a full divergence row) are
   carried correctly. The parent never trusts a frame: lengths are
   bounded, payloads are decoded with {!M.decode_result}, and anything
   malformed is a strike against the worker, not an exception or a hang. *)

let max_frame_len = 1 lsl 28

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let write_frame fd payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b 0 (4 + len)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k = Unix.read fd b off (n - off) in
      if k = 0 then raise End_of_file;
      go (off + k)
    end
  in
  go 0;
  b

(* Blocking read, child side only: the parent reads through per-worker
   buffers so a truncated or slow frame can never block it. *)
let read_frame fd =
  let hdr = read_exact fd 4 in
  let len =
    (Char.code (Bytes.get hdr 0) lsl 24)
    lor (Char.code (Bytes.get hdr 1) lsl 16)
    lor (Char.code (Bytes.get hdr 2) lsl 8)
    lor Char.code (Bytes.get hdr 3)
  in
  Bytes.unsafe_to_string (read_exact fd len)

(* --- workers ---------------------------------------------------------- *)

type worker = {
  mutable pid : int;
  mutable job_w : Unix.file_descr;
  mutable res_r : Unix.file_descr;
  mutable task : int;  (** task index being computed, or -1 when idle *)
  mutable deadline : float;  (** absolute wall-clock timeout for [task] *)
  rbuf : Buffer.t;  (** bytes received but not yet framing a whole result *)
}

(* Child side: pull (index, attempt) jobs until the job pipe closes, push
   framed results — consulting the fault-injection spec at each task
   boundary so chaos tests and `--fault` runs exercise every failure
   class reproducibly. Exits with [Unix._exit] so the parent's buffered
   channels and at_exit hooks (alcotest's reporter, bench writers) never
   run twice. *)
let worker_loop ~encode ~f (tasks : _ array) job_r res_w =
  let spec = Fault.active () in
  (try
     let rec loop () =
       match read_frame job_r with
       | exception End_of_file -> ()
       | frame ->
           let idx, attempt =
             match M.decode frame with
             | M.Arr [ M.Int i; M.Int a ] -> (i, a)
             | _ -> raise Exit
           in
           (match Fault.draw spec ~task:idx ~attempt with
           | Fault.Crash ->
               (* die by signal, exercising the parent's signal-death path *)
               Unix.kill (Unix.getpid ()) Sys.sigkill
           | Fault.Hang ->
               while true do
                 Unix.sleepf 3600.0
               done
           | Fault.Garbage ->
               (* a well-framed but undecodable payload: 0xC1 is the one
                  tag MessagePack reserves as never-used *)
               write_frame res_w "\xc1chaos"
           | Fault.Trunc ->
               (* claim 64 payload bytes, deliver 5, die: a torn frame *)
               let b = Bytes.make 9 '\000' in
               Bytes.set b 3 '\064';
               Bytes.blit_string "torn!" 0 b 4 5;
               write_all res_w b 0 9;
               Unix._exit 1
           | Fault.Pass ->
               let reply =
                 match encode (f tasks.(idx)) with
                 | payload -> M.Arr [ M.Int idx; M.Bool true; payload ]
                 | exception e ->
                     M.Arr [ M.Int idx; M.Bool false; M.Str (Printexc.to_string e) ]
               in
               write_frame res_w (M.encode reply));
           loop ()
     in
     loop ()
   with _ -> ());
  Unix._exit 0

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork one worker. [others] is the parent-side descriptor pairs of every
   other live worker: the child closes them first, because a stray
   inherited [job_w] would keep a sibling's job pipe from ever signalling
   EOF (and a stray [res_r] is a leak). Workers are always spawned one at
   a time — initial pool and respawns alike — so a child can only ever
   inherit parent-side ends of workers that already exist. *)
let spawn_worker ~encode ~f tasks others =
  let job_r, job_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      List.iter
        (fun (jw, rr) ->
          close_quiet jw;
          close_quiet rr)
        others;
      close_quiet job_w;
      close_quiet res_r;
      worker_loop ~encode ~f tasks job_r res_w
  | pid ->
      Unix.close job_r;
      Unix.close res_w;
      (pid, job_w, res_r)

(* --- parent scheduler ------------------------------------------------- *)

let map ?jobs ?policy ?stats ~encode ~decode ~f tasks =
  let n = Array.length tasks in
  let pol = match policy with Some p -> p | None -> default_policy () in
  let st = match stats with Some s -> s | None -> fresh_stats () in
  last := st;
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  if jobs <= 1 || n < 2 then Array.map f tasks
  else begin
    (* a malformed SV_FAULT spec must fail loudly here, in the parent,
       not crash-loop every forked child *)
    ignore (Fault.active ());
    let previous_sigpipe =
      (* a worker that died mid-batch must surface as a strike, not kill
         the parent on the next dispatch write *)
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let restore_sigpipe () =
      match previous_sigpipe with
      | Some h -> Sys.set_signal Sys.sigpipe h
      | None -> ()
    in
    let now () = Unix.gettimeofday () in
    let results = Array.make n None in
    let attempts = Array.make n 0 in
    let ready_at = Array.make n 0.0 in
    let retryq = ref [] in
    let cursor = ref 0 in
    let completed = ref 0 in
    let workers =
      let others = ref [] in
      Array.init jobs (fun _ ->
          let pid, job_w, res_r = spawn_worker ~encode ~f tasks !others in
          others := (job_w, res_r) :: !others;
          { pid; job_w; res_r; task = -1; deadline = infinity; rbuf = Buffer.create 256 })
    in
    let live_others w =
      Array.fold_left
        (fun acc w' -> if w' == w then acc else (w'.job_w, w'.res_r) :: acc)
        [] workers
    in
    (* Close the parent ends, make sure the child is dead, and reap it,
       returning its exit status (the child's own death, not our SIGKILL,
       when it was already a zombie). *)
    let reclaim w =
      close_quiet w.job_w;
      close_quiet w.res_r;
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try snd (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> Unix.WEXITED 0
    in
    let respawn w =
      let pid, job_w, res_r = spawn_worker ~encode ~f tasks (live_others w) in
      w.pid <- pid;
      w.job_w <- job_w;
      w.res_r <- res_r;
      w.task <- -1;
      w.deadline <- infinity;
      Buffer.clear w.rbuf;
      st.respawns <- st.respawns + 1
    in
    let shutdown ~kill =
      Array.iter
        (fun w ->
          close_quiet w.job_w;
          close_quiet w.res_r;
          if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
        workers;
      restore_sigpipe ()
    in
    (* One failed attempt of the task on worker [w]: reclaim and replace
       the worker, then either re-dispatch the task after an exponential
       backoff, degrade it to an in-process run (so the batch still
       completes, byte-identical to serial), or — when degradation is
       disabled — surface a typed error naming the task. *)
    let strike w failure =
      let t = w.task in
      let status = reclaim w in
      let failure =
        match failure with
        | Crashed _ -> Crashed (status_string status)
        | f -> f
      in
      (match failure with
      | Crashed _ -> st.crashes <- st.crashes + 1
      | Timed_out _ -> st.timeouts <- st.timeouts + 1
      | Corrupt_frame _ -> st.corrupt <- st.corrupt + 1
      | Task_raised _ -> ());
      attempts.(t) <- attempts.(t) + 1;
      if attempts.(t) > pol.max_retries && not pol.degrade then begin
        w.task <- -1;
        shutdown ~kill:true;
        raise (Worker_failed { task = t; attempts = attempts.(t); failure })
      end;
      respawn w;
      if attempts.(t) > pol.max_retries then begin
        (* out of strikes: the parent computes the task itself — [f] is
           pure CPU, so this is exactly the serial path for this task *)
        results.(t) <- Some (f tasks.(t));
        st.degraded <- st.degraded + 1;
        incr completed
      end
      else begin
        st.retries <- st.retries + 1;
        ready_at.(t) <-
          now () +. (pol.backoff *. (2.0 ** float_of_int (attempts.(t) - 1)));
        retryq := !retryq @ [ t ]
      end
    in
    let pick_ready t_now =
      let rec scan acc = function
        | [] -> None
        | t :: rest when ready_at.(t) <= t_now ->
            retryq := List.rev_append acc rest;
            Some t
        | t :: rest -> scan (t :: acc) rest
      in
      match scan [] !retryq with
      | Some t -> Some t
      | None ->
          if !cursor < n then begin
            let t = !cursor in
            incr cursor;
            Some t
          end
          else None
    in
    let dispatch w =
      match pick_ready (now ()) with
      | None -> ()
      | Some t -> (
          match write_frame w.job_w (M.encode (M.Arr [ M.Int t; M.Int attempts.(t) ])) with
          | () ->
              w.task <- t;
              w.deadline <-
                (if pol.task_timeout > 0.0 then now () +. pol.task_timeout
                 else infinity)
          | exception Unix.Unix_error _ ->
              (* the worker died while idle (never received the task):
                 replace it and put the task back, unpenalised *)
              ignore (reclaim w);
              respawn w;
              retryq := t :: !retryq)
    in
    let complete w idx v =
      results.(idx) <- Some v;
      incr completed;
      w.task <- -1;
      w.deadline <- infinity
    in
    let handle_frame w payload =
      match M.decode_result payload with
      | Error msg -> strike w (Corrupt_frame ("undecodable: " ^ msg))
      | Ok (M.Arr [ M.Int idx; M.Bool true; res ]) when idx = w.task -> (
          match decode res with
          | v -> complete w idx v
          | exception e ->
              strike w
                (Corrupt_frame ("payload rejected by decode: " ^ Printexc.to_string e)))
      | Ok (M.Arr [ M.Int idx; M.Bool false; M.Str msg ]) when idx = w.task ->
          (* the task itself raised: deterministic, so retrying or running
             it in-process would fail the same way — surface it typed *)
          let att = attempts.(idx) + 1 in
          w.task <- -1;
          shutdown ~kill:true;
          raise (Worker_failed { task = idx; attempts = att; failure = Task_raised msg })
      | Ok _ -> strike w (Corrupt_frame "malformed result frame")
    in
    let rec drain_frames w =
      if w.task >= 0 then begin
        let s = Buffer.contents w.rbuf in
        let len_s = String.length s in
        if len_s >= 4 then begin
          let flen =
            (Char.code s.[0] lsl 24)
            lor (Char.code s.[1] lsl 16)
            lor (Char.code s.[2] lsl 8)
            lor Char.code s.[3]
          in
          if flen < 0 || flen > max_frame_len then
            strike w (Corrupt_frame (Printf.sprintf "implausible frame length %d" flen))
          else if len_s >= 4 + flen then begin
            let payload = String.sub s 4 flen in
            Buffer.clear w.rbuf;
            Buffer.add_substring w.rbuf s (4 + flen) (len_s - 4 - flen);
            handle_frame w payload;
            drain_frames w
          end
        end
      end
    in
    let chunk = Bytes.create 65536 in
    let handle_readable w =
      match Unix.read w.res_r chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | 0 ->
          (* EOF: death between frames is a crash; death mid-frame left a
             torn result behind *)
          if Buffer.length w.rbuf = 0 then strike w (Crashed "eof")
          else strike w (Corrupt_frame "truncated result frame (worker died mid-frame)")
      | k ->
          Buffer.add_subbytes w.rbuf chunk 0 k;
          drain_frames w
    in
    (try
       while !completed < n do
         Array.iter (fun w -> if w.task < 0 then dispatch w) workers;
         if !completed < n then begin
           let t_now = now () in
           let busy =
             Array.fold_left
               (fun acc w -> if w.task >= 0 then w :: acc else acc)
               [] workers
           in
           let wake =
             let acc =
               List.fold_left (fun acc w -> min acc w.deadline) infinity busy
             in
             if Array.exists (fun w -> w.task < 0) workers then
               List.fold_left (fun acc t -> min acc ready_at.(t)) acc !retryq
             else acc
           in
           let timeout = if wake = infinity then -1.0 else max 0.0 (wake -. t_now) in
           let ready, _, _ =
             try Unix.select (List.map (fun w -> w.res_r) busy) [] [] timeout
             with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
           in
           (* snapshot (worker, pid): a worker respawned while handling an
              earlier fd may reuse a descriptor number, and must not be
              confused with the one select reported on *)
           let hits =
             List.filter_map
               (fun fd ->
                 List.find_opt (fun w -> w.res_r = fd) busy
                 |> Option.map (fun w -> (w, w.pid)))
               ready
           in
           List.iter
             (fun (w, pid) -> if w.pid = pid && w.task >= 0 then handle_readable w)
             hits;
           let t_now = now () in
           Array.iter
             (fun w ->
               if w.task >= 0 && w.deadline <= t_now then begin
                 (* a result that arrived at the deadline still wins: only
                    strike when the pipe really has nothing for us *)
                 match Unix.select [ w.res_r ] [] [] 0.0 with
                 | [], _, _ -> strike w (Timed_out pol.task_timeout)
                 | _ -> handle_readable w
                 | exception Unix.Unix_error _ -> strike w (Timed_out pol.task_timeout)
               end)
             workers
         end
       done
     with e ->
       shutdown ~kill:true;
       raise e);
    shutdown ~kill:false;
    Array.map
      (function
        | Some r -> r
        | None -> failwith "sched: missing result (worker lost a task)")
      results
  end
