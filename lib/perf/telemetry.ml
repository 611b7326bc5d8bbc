type ted = {
  mutable equal_prunes : int;
  mutable dp_runs : int;
  mutable dp_cells : int;
  mutable flat_compiles : int;
  mutable scratch_grows : int;
  mutable strategy_left : int;
  mutable strategy_right : int;
}

let zero () =
  {
    equal_prunes = 0;
    dp_runs = 0;
    dp_cells = 0;
    flat_compiles = 0;
    scratch_grows = 0;
    strategy_left = 0;
    strategy_right = 0;
  }

let ted = zero ()

let reset_ted () =
  ted.equal_prunes <- 0;
  ted.dp_runs <- 0;
  ted.dp_cells <- 0;
  ted.flat_compiles <- 0;
  ted.scratch_grows <- 0;
  ted.strategy_left <- 0;
  ted.strategy_right <- 0

let ted_snapshot () = { ted with equal_prunes = ted.equal_prunes }

let ted_diff ~before ~after =
  {
    equal_prunes = after.equal_prunes - before.equal_prunes;
    dp_runs = after.dp_runs - before.dp_runs;
    dp_cells = after.dp_cells - before.dp_cells;
    flat_compiles = after.flat_compiles - before.flat_compiles;
    scratch_grows = after.scratch_grows - before.scratch_grows;
    strategy_left = after.strategy_left - before.strategy_left;
    strategy_right = after.strategy_right - before.strategy_right;
  }

let ted_pruned t = t.equal_prunes

let ted_rows t =
  [
    ("pruned: equal", t.equal_prunes);
    ("DP runs", t.dp_runs);
    ("DP cells", t.dp_cells);
    ("flat compiles", t.flat_compiles);
    ("scratch growths", t.scratch_grows);
    ("strategy: left path", t.strategy_left);
    ("strategy: right path", t.strategy_right);
  ]

let ted_to_string t =
  let pairs = ted_pruned t + t.dp_runs in
  Printf.sprintf
    "ted: %d of %d pairs settled without a DP (equal %d), %d DP runs (%d \
     cells), %d flats, strategy L/R %d/%d"
    (ted_pruned t) pairs t.equal_prunes t.dp_runs t.dp_cells
    t.flat_compiles t.strategy_left t.strategy_right

(* --- service counters --- *)

type serve = {
  mutable connections : int;
  mutable requests : int;
  mutable served : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable queue_peak : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable warm_hits : int;
  mutable cold_misses : int;
  mutable usec_total : int;
}

let serve =
  {
    connections = 0;
    requests = 0;
    served = 0;
    errors = 0;
    overloaded = 0;
    queue_peak = 0;
    bytes_in = 0;
    bytes_out = 0;
    warm_hits = 0;
    cold_misses = 0;
    usec_total = 0;
  }

let reset_serve () =
  serve.connections <- 0;
  serve.requests <- 0;
  serve.served <- 0;
  serve.errors <- 0;
  serve.overloaded <- 0;
  serve.queue_peak <- 0;
  serve.bytes_in <- 0;
  serve.bytes_out <- 0;
  serve.warm_hits <- 0;
  serve.cold_misses <- 0;
  serve.usec_total <- 0

let note_queue_depth d = if d > serve.queue_peak then serve.queue_peak <- d

let serve_rows s =
  [
    ("connections", s.connections);
    ("requests", s.requests);
    ("served", s.served);
    ("errors", s.errors);
    ("overloaded", s.overloaded);
    ("queue_peak", s.queue_peak);
    ("bytes_in", s.bytes_in);
    ("bytes_out", s.bytes_out);
    ("warm_hits", s.warm_hits);
    ("cold_misses", s.cold_misses);
    ("usec_total", s.usec_total);
  ]
