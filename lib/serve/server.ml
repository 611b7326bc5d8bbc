module T = Sv_perf.Telemetry

let default_socket () =
  match Sys.getenv_opt "SV_SOCKET" with
  | Some s when s <> "" -> s
  | _ ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sv-serve-%d.sock" (Unix.getuid ()))

type conn = {
  fd : Unix.file_descr;
  reader : Protocol.Reader.t;
  mutable alive : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  sock_path : string;
  max_frame : int;
  engine : Engine.t;
  mutable conns : conn list;
  queue : (conn * string) Queue.t;
  buf : Bytes.t;  (** read buffer, shared by every connection *)
}

let socket t = t.sock_path

(* Replace a stale socket file; refuse to displace a live daemon. *)
let bind_socket path =
  (match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | _ ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error (_, _, _) -> false
      in
      Unix.close probe;
      if live then
        failwith (Printf.sprintf "%s: a daemon is already listening" path)
      else Unix.unlink path);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let create ?(max_frame = Protocol.default_max_frame) ~socket engine =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  {
    listen_fd = bind_socket socket;
    sock_path = socket;
    max_frame;
    engine;
    conns = [];
    queue = Queue.create ();
    buf = Bytes.create 65536;
  }

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

(* Whole-frame blocking write by the one loop thread: no torn frames.
   A peer that vanished mid-write just loses its connection. *)
let reply t c payload =
  if c.alive then begin
    let bytes = Protocol.frame payload in
    let n = String.length bytes in
    let rec go off =
      if off < n then
        let w = Unix.write_substring c.fd bytes off (n - off) in
        go (off + w)
    in
    match go 0 with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        close_conn t c
  end

let accept_all t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.clear_nonblock fd;
        T.serve.T.connections <- T.serve.T.connections + 1;
        t.conns <-
          { fd; reader = Protocol.Reader.create ~max_frame:t.max_frame (); alive = true }
          :: t.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let high_water t = (Engine.config t.engine).Engine.high_water

(* Pull every complete frame out of a connection's reader: admit to the
   queue below the high-water mark, shed with a typed reply at it, and
   poison-close on an oversized announcement. *)
let drain_frames t c =
  let rec go () =
    if c.alive then
      match Protocol.Reader.next c.reader with
      | `Awaiting -> ()
      | `Oversized n ->
          reply t c (Engine.oversized t.engine ~announced:n ~cap:t.max_frame);
          close_conn t c
      | `Frame payload ->
          let depth = Queue.length t.queue in
          if depth >= high_water t then
            reply t c (Engine.shed t.engine ~queue:depth payload)
          else begin
            Queue.add (c, payload) t.queue;
            T.note_queue_depth (Queue.length t.queue)
          end;
          go ()
  in
  go ()

let read_step t c =
  let buf = t.buf in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn t c
  | n ->
      Protocol.Reader.feed c.reader (Bytes.sub_string buf 0 n);
      drain_frames t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t c

let service_one t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some (c, payload) ->
      Engine.set_queue_depth t.engine (Queue.length t.queue);
      let out = Engine.handle_payload t.engine payload in
      reply t c out

let run t =
  (* A resident daemon's heap grows with the rate of its garbage, not its
     live data: regenerated corpora and replies churn the major heap, and
     at the default space overhead (120) peak RSS rose with every warm
     round served while live words stayed flat. Collecting earlier keeps
     the heap near its live size for a little more GC work. *)
  Gc.set { (Gc.get ()) with space_overhead = 80 };
  let rec loop () =
    if Engine.shutting_down t.engine then drain ()
    else begin
      let fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
      let timeout = if Queue.is_empty t.queue then 0.5 else 0.0 in
      let readable, _, _ =
        match Unix.select fds [] [] timeout with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem t.listen_fd readable then accept_all t;
      List.iter
        (fun c -> if c.alive && List.mem c.fd readable then read_step t c)
        t.conns;
      service_one t;
      loop ()
    end
  and drain () =
    if not (Queue.is_empty t.queue) then begin
      service_one t;
      drain ()
    end
  in
  loop ();
  List.iter (fun c -> close_conn t c) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
  (try Unix.unlink t.sock_path with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  Engine.persist t.engine

let serve ?max_frame ~socket engine = run (create ?max_frame ~socket engine)
