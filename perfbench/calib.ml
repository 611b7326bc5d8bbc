(* Host-speed calibration kernel for perfbench/run.py. It uses nothing
   from the repository, so a change to SilverVale cannot change its cost:
   its run time moves only with the host's speed. The work mirrors what
   `sv` spends its time on: allocation of small tree-shaped values,
   balanced-map and hash-table updates, and integer dynamic programming
   over arrays. Prints one fixed line, which run.py checks. *)

module M = Map.Make (Int)

type t = Node of int * t list

let rec tree st depth =
  let kids = if depth = 0 then 0 else 1 + Random.State.int st 3 in
  Node (Random.State.int st 64, List.init kids (fun _ -> tree st (depth - 1)))

let rec size (Node (_, ks)) = List.fold_left (fun n k -> n + size k) 1 ks

let rec labels acc (Node (l, ks)) = List.fold_left labels (l :: acc) ks

let lcs a b =
  let n = Array.length a and m = Array.length b in
  let dp = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = 1 to n do
    for j = 1 to m do
      dp.(i).(j) <-
        (if a.(i - 1) = b.(j - 1) then dp.(i - 1).(j - 1) + 1
         else max dp.(i - 1).(j) dp.(i).(j - 1))
    done
  done;
  dp.(n).(m)

let () =
  let st = Random.State.make [| 20240501 |] in
  let m = ref M.empty and h = Hashtbl.create 1024 in
  for i = 0 to 60_000 do
    let k = Random.State.int st 1_000_000 in
    m := M.add k i !m;
    Hashtbl.replace h (k land 4095) i
  done;
  let trees = List.init 16 (fun _ -> tree st 7) in
  let nodes = List.fold_left (fun n t -> n + size t) 0 trees in
  let seqs = List.map (fun t -> Array.of_list (labels [] t)) trees in
  let cut a = Array.sub a 0 (min 400 (Array.length a)) in
  let acc = ref 0 in
  List.iteri
    (fun i a ->
      List.iteri (fun j b -> if j = i + 1 then acc := !acc + lcs (cut a) (cut b)) seqs)
    seqs;
  Printf.printf "calib %d %d %d %d\n" (M.cardinal !m) (Hashtbl.length h) nodes !acc
