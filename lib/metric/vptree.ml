type node =
  | Leaf of int array
  | Node of {
      v : int;
      mu : int;
      count : int;  (** subtree size, vantage included *)
      inside : node;
      outside : node;
    }

type t = { root : node; n : int; build_evals : int }

let leaf_cap = 4
let size t = t.n
let build_evals t = t.build_evals

let node_size = function Leaf ids -> Array.length ids | Node n -> n.count

let rec iter_node f = function
  | Leaf ids -> Array.iter f ids
  | Node { v; inside; outside; _ } ->
      f v;
      iter_node f inside;
      iter_node f outside

let elements t =
  let out = Array.make t.n 0 in
  let i = ref 0 in
  iter_node
    (fun id ->
      out.(!i) <- id;
      incr i)
    t.root;
  Array.sort compare out;
  out

(* Vantage = lowest id of the subset (deterministic); μ = lower median
   of the distances to the rest; inside holds d ≤ μ, outside d > μ.
   Even when every distance equals μ the vantage leaves the subset, so
   the recursion strictly shrinks and terminates. Partition preserves
   the ascending id order of the input, so the whole structure is a
   function of the id set and the metric alone. *)
let rec make ~d ids =
  if Array.length ids <= leaf_cap then Leaf ids
  else begin
    let v = ids.(0) in
    let rest = Array.sub ids 1 (Array.length ids - 1) in
    let ds = Array.map (fun x -> d v x) rest in
    let sorted = Array.copy ds in
    Array.sort compare sorted;
    let mu = sorted.((Array.length sorted - 1) / 2) in
    let nin = ref 0 in
    Array.iter (fun dv -> if dv <= mu then incr nin) ds;
    let inside = Array.make !nin 0
    and outside = Array.make (Array.length rest - !nin) 0 in
    let i = ref 0 and o = ref 0 in
    Array.iteri
      (fun idx x ->
        if ds.(idx) <= mu then begin
          inside.(!i) <- x;
          incr i
        end
        else begin
          outside.(!o) <- x;
          incr o
        end)
      rest;
    Node
      {
        v;
        mu;
        count = Array.length ids;
        inside = make ~d inside;
        outside = make ~d outside;
      }
  end

let build ~dist ids =
  let evals = ref 0 in
  let d a b =
    incr evals;
    dist a b
  in
  let ids = Array.copy ids in
  Array.sort compare ids;
  let root = make ~d ids in
  { root; n = Array.length ids; build_evals = !evals }

(* --- plain-data representation ---------------------------------------- *)

(* Preorder flattening into an int array, for callers that persist the
   index (the codec and the digest-keyed cache live in [Sv_db], which
   this library must not depend on):
     header  [n]
     leaf    [0; len; id…]            len ≤ leaf_cap
     node    [1; v; mu; count; inside…; outside…]
   [of_repr] re-validates everything structural — tags, leaf lengths,
   the count bookkeeping, μ ≥ 0, distinct ids, no trailing words — so a
   decoded-but-mangled payload yields [None] (cold rebuild) rather than
   a tree that breaks the query invariants. Metric facts (μ really is
   the inside radius) are not checkable without the evaluator; the
   cache layer guards those by keying payloads on the corpus digest. *)
let to_repr t =
  let out = ref [] in
  let push x = out := x :: !out in
  let rec go = function
    | Leaf ids ->
        push 0;
        push (Array.length ids);
        Array.iter push ids
    | Node { v; mu; count; inside; outside } ->
        push 1;
        push v;
        push mu;
        push count;
        go inside;
        go outside
  in
  push t.n;
  go t.root;
  let l = List.rev !out in
  Array.of_list l

let of_repr a =
  let len = Array.length a in
  let pos = ref 0 in
  let exception Bad in
  let take () =
    if !pos >= len then raise Bad
    else begin
      let x = a.(!pos) in
      incr pos;
      x
    end
  in
  let rec node () =
    match take () with
    | 0 ->
        let l = take () in
        if l < 0 || l > leaf_cap || !pos + l > len then raise Bad;
        let ids = Array.sub a !pos l in
        pos := !pos + l;
        Leaf ids
    | 1 ->
        let v = take () in
        let mu = take () in
        let count = take () in
        if mu < 0 then raise Bad;
        let inside = node () in
        let outside = node () in
        if count <> 1 + node_size inside + node_size outside then raise Bad;
        Node { v; mu; count; inside; outside }
    | _ -> raise Bad
  in
  match
    let n = take () in
    let root = node () in
    if !pos <> len then raise Bad;
    if node_size root <> n then raise Bad;
    (* ids must be distinct: duplicates would silently double-count *)
    let t = { root; n; build_evals = 0 } in
    let ids = elements t in
    for i = 1 to n - 1 do
      if ids.(i) = ids.(i - 1) then raise Bad
    done;
    t
  with
  | t -> Some t
  | exception Bad -> None

(* --- queries ----------------------------------------------------------- *)

(* Saturating add: cutoffs near max_int must not wrap. *)
let sat_add a b = if a >= max_int - b then max_int else a + b

(* best: ascending (d, id) list, ≤ k long. τ = the kth key; a candidate
   or subtree survives only if it can beat τ under the lexicographic
   (d, id) order, which makes the result the exact k smallest keys
   independent of traversal order. *)
module Best = struct
  type b = { k : int; mutable xs : (int * int) list; mutable n : int }

  let create k = { k; xs = []; n = 0 }
  let tau_key b = if b.n < b.k then (max_int, max_int) else List.nth b.xs (b.n - 1)
  let tau_d b = fst (tau_key b)

  let consider b id dv =
    let key = (dv, id) in
    if b.n < b.k || key < tau_key b then begin
      let rec ins = function
        | [] -> [ key ]
        | x :: rest -> if key < x then key :: x :: rest else x :: ins rest
      in
      let merged = ins b.xs in
      if b.n < b.k then begin
        b.xs <- merged;
        b.n <- b.n + 1
      end
      else
        (* drop the previous kth *)
        b.xs <- List.filteri (fun i _ -> i < b.k) merged
    end
end

let nearest ~dist_bounded ~k t =
  if k <= 0 then ([], 0)
  else begin
    let evals = ref 0 in
    let dq id ~cutoff =
      incr evals;
      dist_bounded id ~cutoff
    in
    let best = Best.create k in
    let try_candidate id =
      match dq id ~cutoff:(Best.tau_d best) with
      | Some dv -> Best.consider best id dv
      | None -> ()
    in
    let rec visit = function
      | Leaf ids -> Array.iter try_candidate ids
      | Node { v; mu; inside; outside; _ } -> (
          (* One bounded eval serves both the candidate check and the
             routing: cutoff τ+μ. [None] proves d(q,v) > τ+μ, hence
             d(q,v) − μ > τ and the inside ball cannot beat τ; the
             outside shell still can (μ − d(q,v) < 0 ≤ τ). *)
          match dq v ~cutoff:(sat_add (Best.tau_d best) mu) with
          | None -> visit outside
          | Some dv ->
              if dv <= Best.tau_d best then Best.consider best v dv;
              if dv <= mu then begin
                visit inside;
                if mu - dv <= Best.tau_d best then visit outside
              end
              else begin
                visit outside;
                if dv - mu <= Best.tau_d best then visit inside
              end)
    in
    visit t.root;
    (best.Best.xs, !evals)
  end

(* --- budgeted / ε-approximate k-NN ------------------------------------- *)

type ledger = { evals : int; guaranteed_exact : bool }

(* Binary min-heap over ((lower bound, sequence number), node): the
   sequence number makes pop order — hence the whole traversal — a
   deterministic function of the tree and the query. *)
module Heap = struct
  type 'a h = { mutable arr : ((int * int) * 'a) array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let is_empty h = h.len = 0

  let push h x =
    if h.len = Array.length h.arr then begin
      let cap = max 16 (2 * h.len) in
      let arr = Array.make cap x in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.arr.(p) in
      h.arr.(p) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := p
    done

  let pop h =
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.len && fst h.arr.(l) < fst h.arr.(!m) then m := l;
        if r < h.len && fst h.arr.(r) < fst h.arr.(!m) then m := r;
        if !m = !i then continue := false
        else begin
          let tmp = h.arr.(!m) in
          h.arr.(!m) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !m
        end
      done
    end;
    top
end

(* Best-first traversal: pop the frontier subtree with the least
   admissible lower bound on its distance to the query, so bounds only
   ever ascend and the first pop whose bound exceeds τ proves the search
   complete. The exact pruning rule is lb > τ (a point at distance
   exactly τ with a smaller id can still displace the kth under the
   (d, id) order); ε > 0 strengthens it to lb·(1+ε) > τ, and a budget
   caps evaluator calls outright. The ledger is honest by construction:
   [guaranteed_exact] is false only when the search actually stopped —
   by budget or by an ε-cut — while the frontier still held a subtree
   the exact rule would have visited. With no budget and ε = 0 the
   result equals [nearest] equals brute force, and the ledger says so. *)
let nearest_budgeted ~dist_bounded ~k ?budget ?(epsilon = 0.) t =
  if k <= 0 then ([], { evals = 0; guaranteed_exact = true })
  else begin
    let limit =
      match budget with Some b when b >= 0 -> b | Some _ -> 0 | None -> max_int
    in
    let evals = ref 0 in
    let dq id ~cutoff =
      incr evals;
      dist_bounded id ~cutoff
    in
    let best = Best.create k in
    let budget_cut = ref false and eps_cut = ref false in
    let heap = Heap.create () in
    let seq = ref 0 in
    let push lb node =
      Heap.push heap ((lb, !seq), node);
      incr seq
    in
    push 0 t.root;
    let exception Stop in
    (try
       while not (Heap.is_empty heap) do
         let (lb, _), node = Heap.pop heap in
         let tau = Best.tau_d best in
         if lb > tau then raise Stop (* every other frontier bound ≥ lb *)
         else if
           epsilon > 0.
           && float_of_int lb *. (1. +. epsilon) > float_of_int tau
         then begin
           (* viable under the exact rule but pruned by ε; the remaining
              frontier bounds are all ≥ lb, so the same cut applies —
              stop, and say the answer is no longer guaranteed. Any point
              skipped here has d ≥ lb > τ/(1+ε), which is exactly the
              multiplicative guarantee on every returned rank. *)
           eps_cut := true;
           raise Stop
         end
         else begin
           match node with
           | Leaf ids ->
               let len = Array.length ids in
               let i = ref 0 in
               while !i < len do
                 if !evals >= limit then begin
                   budget_cut := true;
                   raise Stop
                 end;
                 let id = ids.(!i) in
                 (match dq id ~cutoff:(Best.tau_d best) with
                 | Some dv -> Best.consider best id dv
                 | None -> ());
                 incr i
               done
           | Node { v; mu; inside; outside; _ } ->
               if !evals >= limit then begin
                 budget_cut := true;
                 raise Stop
               end;
               (match dq v ~cutoff:(sat_add (Best.tau_d best) mu) with
               | None ->
                   (* d(q,v) > τ+μ: the inside ball cannot beat τ; the
                      outside shell keeps the parent's bound. *)
                   push lb outside
               | Some dv ->
                   if dv <= Best.tau_d best then Best.consider best v dv;
                   (* inside points have d(v,·) ≤ μ, outside d(v,·) ≥ μ+1
                      (integer metric), so by the triangle inequality: *)
                   push (max lb (dv - mu)) inside;
                   push (max lb (mu + 1 - dv)) outside)
         end
       done
     with Stop -> ());
    ( best.Best.xs,
      { evals = !evals; guaranteed_exact = not (!budget_cut || !eps_cut) } )
  end
