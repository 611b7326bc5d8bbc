module A = Bigarray.Array1
module T = Sv_perf.Telemetry

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let buf n : buf = A.create Bigarray.int Bigarray.c_layout n

(* One Zhang–Shasha decomposition direction: postorder labels and
   leftmost-leaf indices (1-based, slot 0 unused), the keyroots in
   ascending order with one action each, the total keyroot span
   kcost = Σ (i − lml(i) + 1), and ucost, the same sum over the keyroots
   whose action is [compute]. The right direction is the left
   decomposition of the mirror tree, so both share this shape. Subtree
   sizes are implicit: the subtree of node i occupies the postorder slice
   [lml(i), i], hence |i| = i − lml(i) + 1.

   [actions.{k}] says what the DP does for keyroot [keyroots.{k}]:
   [compute] (0) runs its forest tables; a positive [off] copies its td
   cells from the equal subtree of the keyroot [off] slots earlier; [skip]
   (−1) does nothing, because the keyroot lies inside a copied subtree. *)
type dir = {
  labels : buf;
  lml : buf;
  keyroots : buf;
  actions : buf;
  kcost : int;
  ucost : int;
}

type t = { size : int; left : dir; right : dir }

let compute = 0
let skip = -1

(* Keyroots of one direction (a node is a keyroot iff it is the highest
   node for its leftmost leaf; scanning downward and prepending leaves the
   list ascending), and their actions. [sid.(i)] is the structural class
   of slot i. Walking keyroots from the outermost in, a keyroot inside a
   copied subtree (at or above [covered], the copied keyroot's leftmost
   leaf) is skipped; any other keyroot copies from the first keyroot of
   its class when that comes earlier, and computes otherwise. *)
let compile_dir ~labels ~lml ~sid n =
  let seen = Array.make (n + 1) 0 in
  let krs = ref [] and nkr = ref 0 in
  for i = n downto 1 do
    let l = A.unsafe_get lml i in
    if seen.(l) = 0 then begin
      seen.(l) <- 1;
      krs := i :: !krs;
      incr nkr
    end
  done;
  let keyroots = buf !nkr and actions = buf !nkr in
  (* [seen] now maps a class to its first keyroot *)
  Array.fill seen 0 (n + 1) 0;
  let kcost = ref 0 in
  List.iteri
    (fun k i ->
      A.unsafe_set keyroots k i;
      kcost := !kcost + (i - A.unsafe_get lml i + 1);
      let c = sid.(i) in
      if seen.(c) = 0 then seen.(c) <- i)
    !krs;
  let ucost = ref 0 and covered = ref (n + 1) in
  for k = !nkr - 1 downto 0 do
    let i = A.unsafe_get keyroots k in
    let li = A.unsafe_get lml i and first = seen.(sid.(i)) in
    if i >= !covered then A.unsafe_set actions k skip
    else if first < i then begin
      A.unsafe_set actions k (i - first);
      covered := li
    end
    else begin
      A.unsafe_set actions k compute;
      ucost := !ucost + (i - li + 1)
    end
  done;
  { labels; lml; keyroots; actions; kcost = !kcost; ucost = !ucost }

let mix h =
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Structural ids over the left postorder: [sid.(i)] is the first slot
   whose subtree equals slot i's. Children of slot i are enumerated from
   the last (i − 1) backwards through lml, so the intern table is keyed
   by (label, child ids) with no per-node allocation. Equality is exact;
   the hash only picks the probe sequence. *)
let structural_ids labels lml n =
  let sid = Array.make (n + 1) 0 in
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let table = Array.make !cap 0 in
  let same i r =
    A.unsafe_get labels i = A.unsafe_get labels r
    && begin
         let li = A.unsafe_get lml i and lr = A.unsafe_get lml r in
         let ci = ref (i - 1) and cr = ref (r - 1) in
         while !ci >= li && !cr >= lr && sid.(!ci) = sid.(!cr) do
           ci := A.unsafe_get lml !ci - 1;
           cr := A.unsafe_get lml !cr - 1
         done;
         !ci < li && !cr < lr
       end
  in
  for i = 1 to n do
    let li = A.unsafe_get lml i in
    let h = ref (mix (A.unsafe_get labels i)) and c = ref (i - 1) in
    while !c >= li do
      h := mix (!h + sid.(!c));
      c := A.unsafe_get lml !c - 1
    done;
    let slot = ref (!h land mask) in
    while table.(!slot) <> 0 && not (same i table.(!slot)) do
      slot := (!slot + 1) land mask
    done;
    if table.(!slot) = 0 then begin
      table.(!slot) <- i;
      sid.(i) <- i
    end
    else sid.(i) <- table.(!slot)
  done;
  sid

(* One walk of the pointer tree fills the left direction; the right one
   is derived from it. The mirror's postorder is the reverse of the
   preorder, so slot i lands at n + 1 − pre(i), with its subtree ending
   there. Mirroring both subtrees keeps them equal or unequal, so one
   structural-id pass serves both directions. *)
let of_tree t =
  T.ted.T.flat_compiles <- T.ted.T.flat_compiles + 1;
  let n = Tree.size t in
  let labels = buf (n + 1) and lml = buf (n + 1) in
  let pre = Array.make (n + 1) 0 in
  A.unsafe_set labels 0 0;
  A.unsafe_set lml 0 0;
  let post = ref 0 and rank = ref 0 in
  let rec go (Tree.Node (x, cs)) =
    incr rank;
    let r = !rank in
    let first_leaf = kids 0 cs in
    incr post;
    let i = !post in
    let lm = if first_leaf = 0 then i else first_leaf in
    A.unsafe_set labels i x;
    A.unsafe_set lml i lm;
    pre.(i) <- r;
    lm
  and kids first = function
    | [] -> first
    | c :: cs ->
        let lm = go c in
        kids (if first = 0 then lm else first) cs
  in
  ignore (go t);
  let sid = structural_ids labels lml n in
  let rlabels = buf (n + 1) and rlml = buf (n + 1) and rsid = Array.make (n + 1) 0 in
  A.unsafe_set rlabels 0 0;
  A.unsafe_set rlml 0 0;
  for i = 1 to n do
    let r = n + 1 - pre.(i) in
    A.unsafe_set rlabels r (A.unsafe_get labels i);
    A.unsafe_set rlml r (r - (i - A.unsafe_get lml i));
    rsid.(r) <- sid.(i)
  done;
  let left = compile_dir ~labels ~lml ~sid n in
  let right = compile_dir ~labels:rlabels ~lml:rlml ~sid:rsid n in
  { size = n; left; right }

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

(* A plain loop rather than [Array.blit]: on a major-heap array the
   runtime's blit goes through the write barrier cell by cell, where a
   store into an [int array] needs none. *)
let copy (td : int array) src dst len =
  for k = 0 to len - 1 do
    Array.unsafe_set td (dst + k) (Array.unsafe_get td (src + k))
  done

(* One keyroot pair (i, j) of Zhang–Shasha: the forest table over
   [lml(i), i] × [lml(j), j], writing td for every pair of nodes on the
   two keyroots' left paths. [st]/[sf] are the row strides of the td and
   fd buffers. Integer mins are written out as compares: without flambda
   a [Stdlib.min] per cell is a generic-compare call, and this loop runs
   billions of cells per matrix. *)
let forest ~td ~fd ~st ~sf d1 d2 i j =
  let l1 = d1.lml and l2 = d2.lml in
  let lab1 = d1.labels and lab2 = d2.labels in
  let li = A.unsafe_get l1 i and lj = A.unsafe_get l2 j in
  let w = i - li + 2 and h = j - lj + 2 in
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

(* Zhang–Shasha over flat arrays, keyroots ascending in both trees, each
   taking its action. A td cell depends only on the two subtrees it
   pairs, so a keyroot whose subtree equals an earlier keyroot's gets its
   cells by copy: the earlier subtree is disjoint and complete (every
   keyroot inside it came earlier, or was itself covered by an earlier
   copy), and the keyroots a copy covers are skipped, which is safe as
   everything between them and the copy lies inside the same subtree.

   - T1 copy i: every td row of [lml(i), i], all columns — one
     contiguous slice of the row-major table.
   - T2 copy j: for each row on the current keyroot i's left path, the
     columns [lml(j), j]; the other rows of [lml(i), i] belong to the
     keyroots inside i, which run their own copies. *)
let zs ~td ~fd d1 d2 n1 n2 =
  let st = n2 + 1 and sf = n2 + 2 in
  let l1 = d1.lml and l2 = d2.lml in
  let kr1 = d1.keyroots and kr2 = d2.keyroots in
  let act1 = d1.actions and act2 = d2.actions in
  for ki = 0 to A.dim kr1 - 1 do
    let i = A.unsafe_get kr1 ki in
    let li = A.unsafe_get l1 i and off1 = A.unsafe_get act1 ki in
    if off1 > 0 then copy td ((li - off1) * st) (li * st) ((i - li + 1) * st)
    else if off1 = compute then
      for kj = 0 to A.dim kr2 - 1 do
        let j = A.unsafe_get kr2 kj and off2 = A.unsafe_get act2 kj in
        if off2 > 0 then begin
          let lj = A.unsafe_get l2 j in
          for x = li to i do
            if A.unsafe_get l1 x = li then
              copy td ((x * st) + lj - off2) ((x * st) + lj) (j - lj + 1)
          done
        end
        else if off2 = compute then forest ~td ~fd ~st ~sf d1 d2 i j
      done
  done;
  Array.unsafe_get td ((n1 * st) + n2)

(* The distance is invariant under mirroring both trees (an edit mapping
   stays valid with ancestor and sibling orders both reversed), so per
   pair the cheaper decomposition direction wins: ZS work is proportional
   to kcost₁ · kcost₂, which left- and right-leaning trees skew by large
   factors. Ties go left, keeping the choice deterministic. *)
let use_left a b = a.left.kcost * b.left.kcost <= a.right.kcost * b.right.kcost

let dirs a b = if use_left a b then (a.left, b.left) else (a.right, b.right)

let zs_pair scratch a b =
  let d1, d2 = dirs a b in
  zs ~td:scratch.td ~fd:scratch.fd d1 d2 a.size b.size

(* Each computed keyroot pair (i, j) fills |i| · |j| cells. *)
let cells a b =
  let d1, d2 = dirs a b in
  d1.ucost * d2.ucost

let count_dp a b =
  if use_left a b then T.ted.T.strategy_left <- T.ted.T.strategy_left + 1
  else T.ted.T.strategy_right <- T.ted.T.strategy_right + 1;
  T.ted.T.dp_runs <- T.ted.T.dp_runs + 1;
  T.ted.T.dp_cells <- T.ted.T.dp_cells + cells a b

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
