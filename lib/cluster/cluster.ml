type matrix = { labels : string array; data : float array array }

let of_fn ?(symmetric = false) labels f =
  let n = Array.length labels in
  let data =
    if not symmetric then Array.init n (fun i -> Array.init n (fun j -> f i j))
    else begin
      (* evaluate each unordered pair once and mirror — for expensive
         symmetric divergences this halves the number of [f] calls *)
      let data = Array.make_matrix n n 0.0 in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          let d = f i j in
          data.(i).(j) <- d;
          data.(j).(i) <- d
        done
      done;
      data
    end
  in
  { labels; data }

let row_euclidean m =
  let n = Array.length m.labels in
  let dist i j =
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      let d = m.data.(i).(k) -. m.data.(j).(k) in
      s := !s +. (d *. d)
    done;
    sqrt !s
  in
  (* row distance is symmetric by construction and zero on the diagonal,
     so only the strict upper triangle is ever computed *)
  let data = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = dist i j in
      data.(i).(j) <- d;
      data.(j).(i) <- d
    done
  done;
  { labels = m.labels; data }

type linkage = Single | Complete | Average

type dendro = Leaf of int | Merge of dendro * dendro * float

(* Cluster state: each active cluster is a (dendrogram, member list). The
   inter-cluster distance is recomputed from the base matrix under the
   chosen linkage — O(n³) overall, which is plenty for model counts. *)
let cluster linkage m =
  let n = Array.length m.labels in
  if n = 0 then invalid_arg "Cluster.cluster: empty matrix";
  let base = m.data in
  let dist members_a members_b =
    let pairs =
      List.concat_map (fun i -> List.map (fun j -> base.(i).(j)) members_b) members_a
    in
    match linkage with
    | Single -> List.fold_left Float.min infinity pairs
    | Complete -> List.fold_left Float.max neg_infinity pairs
    | Average ->
        List.fold_left ( +. ) 0.0 pairs /. float_of_int (List.length pairs)
  in
  let active = ref (List.init n (fun i -> (Leaf i, [ i ]))) in
  while List.length !active > 1 do
    (* find the closest pair, breaking ties on lowest indices *)
    let best = ref None in
    let arr = Array.of_list !active in
    for i = 0 to Array.length arr - 1 do
      for j = i + 1 to Array.length arr - 1 do
        let _, mi = arr.(i) and _, mj = arr.(j) in
        let d = dist mi mj in
        match !best with
        | Some (bd, _, _) when bd <= d -> ()
        | _ -> best := Some (d, i, j)
      done
    done;
    match !best with
    | None -> assert false
    | Some (d, i, j) ->
        let di, mi = arr.(i) and dj, mj = arr.(j) in
        let merged = (Merge (di, dj, d), mi @ mj) in
        let remaining =
          Array.to_list arr
          |> List.filteri (fun k _ -> k <> i && k <> j)
        in
        active := merged :: remaining
  done;
  match !active with [ (d, _) ] -> d | _ -> assert false

let rec leaves = function
  | Leaf i -> [ i ]
  | Merge (a, b, _) -> leaves a @ leaves b

(* Exact equality, heights compared bit-for-bit (Float.equal, not =, so
   the result is well-defined even if a NaN ever reached a height). The
   byte-identity harnesses' oracle: a pruned or parallel matrix path must
   reproduce the serial dendrogram exactly, not approximately. *)
let rec equal a b =
  match (a, b) with
  | Leaf i, Leaf j -> i = j
  | Merge (a1, b1, h1), Merge (a2, b2, h2) ->
      Float.equal h1 h2 && equal a1 a2 && equal b1 b2
  | _ -> false

let merge_heights d =
  let rec go acc = function
    | Leaf _ -> acc
    | Merge (a, b, h) -> go (go (h :: acc) a) b
  in
  List.sort compare (go [] d)

let cophenetic d n =
  let m = Array.make_matrix n n 0.0 in
  let rec go = function
    | Leaf _ -> ()
    | Merge (a, b, h) ->
        let la = leaves a and lb = leaves b in
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                m.(i).(j) <- h;
                m.(j).(i) <- h)
              lb)
          la;
        go a;
        go b
  in
  go d;
  m

let cut d h =
  let rec go node =
    match node with
    | Leaf i -> [ [ i ] ]
    | Merge (a, b, mh) -> if mh <= h then [ leaves node ] else go a @ go b
  in
  go d
