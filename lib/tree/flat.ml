module A = Bigarray.Array1
module T = Sv_perf.Telemetry

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let buf n : buf = A.create Bigarray.int Bigarray.c_layout n

(* One Zhang–Shasha decomposition direction: postorder labels and
   leftmost-leaf indices (1-based, slot 0 unused), the keyroots in
   ascending order, and the total keyroot span Σ (i − lml(i) + 1). The
   right direction is the left decomposition of the mirror tree, so both
   share this shape. Subtree sizes are implicit: the subtree of node i
   occupies the postorder slice [lml(i), i], hence |i| = i − lml(i) + 1. *)
type dir = { labels : buf; lml : buf; keyroots : buf; kcost : int }

type t = { size : int; left : dir; right : dir }

let compile_dir ~mirror t n =
  let labels = buf (n + 1) and lml = buf (n + 1) in
  A.unsafe_set labels 0 0;
  A.unsafe_set lml 0 0;
  let counter = ref 0 in
  let rec go (Tree.Node (x, cs)) =
    let cs = if mirror then List.rev cs else cs in
    let first_leaf = ref 0 in
    List.iteri
      (fun k c ->
        let leftmost = go c in
        if k = 0 then first_leaf := leftmost)
      cs;
    incr counter;
    let i = !counter in
    A.unsafe_set labels i x;
    let lm = if cs = [] then i else !first_leaf in
    A.unsafe_set lml i lm;
    lm
  in
  ignore (go t);
  (* a node is a keyroot iff it is the highest node for its leftmost leaf;
     scanning downward and pushing front leaves the list ascending *)
  let seen = Array.make (n + 1) false in
  let krs = ref [] and nkr = ref 0 in
  for i = n downto 1 do
    let l = A.unsafe_get lml i in
    if not seen.(l) then begin
      seen.(l) <- true;
      krs := i :: !krs;
      incr nkr
    end
  done;
  let keyroots = buf !nkr in
  let kcost = ref 0 in
  List.iteri
    (fun k i ->
      A.unsafe_set keyroots k i;
      kcost := !kcost + (i - A.unsafe_get lml i + 1))
    !krs;
  { labels; lml; keyroots; kcost = !kcost }

let of_tree t =
  T.ted.T.flat_compiles <- T.ted.T.flat_compiles + 1;
  let n = Tree.size t in
  let left = compile_dir ~mirror:false t n in
  let right = compile_dir ~mirror:true t n in
  { size = n; left; right }

let size f = f.size

(* --- scratch buffers -------------------------------------------------- *)

(* One td + one fd buffer per context, grown geometrically and never
   shrunk or cleared: every td cell the DP reads was written earlier in
   the same pair (keyroots ascend), and fd rows are (re)initialised per
   keyroot pair, so dirty contents are harmless. One context serves a
   whole matrix row — zero per-pair allocation.

   These are plain [int array]s, not Bigarrays: the DP's critical
   dependency chain is load → compare → store on these two tables, and
   OCaml int arrays do that with tagged loads/stores and no boxing,
   where a Bigarray int access pays an extra indirection plus an
   untag/retag on every cell. The compiled [dir] arrays stay Bigarrays —
   they are read-only and off the dependency chain. *)
type scratch = { mutable td : int array; mutable fd : int array }

let scratch () = { td = [||]; fd = [||] }
let shared = scratch ()

(* [count] is false for a DP run off the main domain, which must not
   touch the process-global counters. *)
let grow ~count cur need =
  let cap = max need (2 * Array.length cur) in
  if count then T.ted.T.scratch_grows <- T.ted.T.scratch_grows + 1;
  Array.make cap 0

let fit ~count scratch n1 n2 =
  let need_td = (n1 + 1) * (n2 + 1) and need_fd = (n1 + 2) * (n2 + 2) in
  if Array.length scratch.td < need_td then scratch.td <- grow ~count scratch.td need_td;
  if Array.length scratch.fd < need_fd then scratch.fd <- grow ~count scratch.fd need_fd

let reserve ?(scratch = shared) n1 n2 = fit ~count:true scratch n1 n2

(* --- the kernel ------------------------------------------------------- *)

(* Zhang–Shasha over flat arrays. [st]/[sf] are the row strides of the td
   and fd buffers. Integer mins are written out as compares: without
   flambda a [Stdlib.min] per cell is a generic-compare call, and this
   loop runs billions of cells per matrix. *)
let zs ~td ~fd d1 d2 n1 n2 =
  let st = n2 + 1 and sf = n2 + 2 in
  let l1 = d1.lml and l2 = d2.lml in
  let lab1 = d1.labels and lab2 = d2.labels in
  let kr1 = d1.keyroots and kr2 = d2.keyroots in
  let nk1 = A.dim kr1 and nk2 = A.dim kr2 in
  for ki = 0 to nk1 - 1 do
    let i = A.unsafe_get kr1 ki in
    let li = A.unsafe_get l1 i in
    let w = i - li + 2 in
    for kj = 0 to nk2 - 1 do
      let j = A.unsafe_get kr2 kj in
      let lj = A.unsafe_get l2 j in
      let h = j - lj + 2 in
      for dj = 0 to h - 1 do
        Array.unsafe_set fd dj dj
      done;
      for di = 1 to w - 1 do
        let row = di * sf and prev = (di - 1) * sf in
        Array.unsafe_set fd row di;
        let ni = li + di - 1 in
        let lni = A.unsafe_get l1 ni in
        let tdi = ni * st in
        if lni = li then begin
          (* keyroot-aligned row: a cell is a tree–tree distance exactly
             when the column prefix is a whole subtree too. The previous
             cell and the diagonal ride in registers, and the sub path's
             forest row is row 0, which always holds 0..h-1 — so that
             lookup is pure arithmetic. *)
          let labi = A.unsafe_get lab1 ni in
          let left = ref di and diag = ref (Array.unsafe_get fd prev) in
          for dj = 1 to h - 1 do
            let nj = lj + dj - 1 in
            let above = Array.unsafe_get fd (prev + dj) in
            let l2v = A.unsafe_get l2 nj in
            let del = above + 1 and ins = !left + 1 in
            let v =
              if l2v = lj then begin
                let rel =
                  !diag + if labi = A.unsafe_get lab2 nj then 0 else 1
                in
                let v = if del <= ins then del else ins in
                let v = if v <= rel then v else rel in
                Array.unsafe_set td (tdi + nj) v;
                v
              end
              else begin
                let sub = l2v - lj + Array.unsafe_get td (tdi + nj) in
                let v = if del <= ins then del else ins in
                if v <= sub then v else sub
              end
            in
            Array.unsafe_set fd (row + dj) v;
            diag := above;
            left := v
          done
        end
        else begin
          (* interior row: every cell takes the sub path *)
          let sub_row = (lni - li) * sf in
          let left = ref di in
          for dj = 1 to h - 1 do
            let nj = lj + dj - 1 in
            let above = Array.unsafe_get fd (prev + dj) in
            let l2v = A.unsafe_get l2 nj in
            let del = above + 1 and ins = !left + 1 in
            let sub =
              Array.unsafe_get fd (sub_row + (l2v - lj))
              + Array.unsafe_get td (tdi + nj)
            in
            let v = if del <= ins then del else ins in
            let v = if v <= sub then v else sub in
            Array.unsafe_set fd (row + dj) v;
            left := v
          done
        end
      done
    done
  done;
  Array.unsafe_get td ((n1 * st) + n2)

(* The distance is invariant under mirroring both trees (an edit mapping
   stays valid with ancestor and sibling orders both reversed), so per
   pair the cheaper decomposition direction wins: ZS work is proportional
   to kcost₁ · kcost₂, which left- and right-leaning trees skew by large
   factors. Ties go left, keeping the choice deterministic. *)
let use_left a b = a.left.kcost * b.left.kcost <= a.right.kcost * b.right.kcost

let zs_pair scratch a b =
  let left = use_left a b in
  let d1 = if left then a.left else a.right in
  let d2 = if left then b.left else b.right in
  zs ~td:scratch.td ~fd:scratch.fd d1 d2 a.size b.size

let count_dp a b =
  if use_left a b then T.ted.T.strategy_left <- T.ted.T.strategy_left + 1
  else T.ted.T.strategy_right <- T.ted.T.strategy_right + 1;
  T.ted.T.dp_runs <- T.ted.T.dp_runs + 1

let run_dp ~scratch a b =
  reserve ~scratch a.size b.size;
  count_dp a b;
  zs_pair scratch a b

let dp ?(scratch = shared) a b =
  fit ~count:false scratch a.size b.size;
  zs_pair scratch a b

(* Equality is physical only: callers that can tell equal trees apart
   cheaply (the divergence layer, by intern id) do so before calling in,
   and separately compiled flats of one tree simply take the DP. *)
let distance ?(scratch = shared) a b =
  if a == b then begin
    T.ted.T.equal_prunes <- T.ted.T.equal_prunes + 1;
    0
  end
  else run_dp ~scratch a b
