(* Doubly-linked recency list + hashtable of nodes. The list order is
   the single source of truth for eviction; [bytes] is maintained
   incrementally and re-derivable from the nodes (asserted by tests). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable size : int;
  mutable prev : 'a node option;  (* towards most-recent *)
  mutable next : 'a node option;  (* towards least-recent *)
}

type 'a t = {
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recent *)
  mutable tail : 'a node option;  (* least recent *)
  mutable used : int;
  budget : int;
  size_of : 'a -> int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~budget ~size_of () =
  {
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    used = 0;
    budget = max 0 budget;
    size_of;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      Some n.value

let mem t k = Hashtbl.mem t.table k

(* Evict from the tail until the budget fits or only the head remains. *)
let rec shed t =
  if t.used > t.budget then
    match t.tail with
    (* compare nodes, not the option cells around them: [head] and
       [tail] hold physically distinct [Some] blocks even when both
       point at the same lone node *)
    | Some n when (match t.head with Some h -> h != n | None -> false) ->
        unlink t n;
        Hashtbl.remove t.table n.key;
        t.used <- t.used - n.size;
        t.evictions <- t.evictions + 1;
        shed t
    | _ -> ()

let add t k v =
  let sz = t.size_of v in
  (match Hashtbl.find_opt t.table k with
  | Some n ->
      t.used <- t.used - n.size + sz;
      n.value <- v;
      n.size <- sz;
      unlink t n;
      push_front t n
  | None ->
      let n = { key = k; value = v; size = sz; prev = None; next = None } in
      Hashtbl.add t.table k n;
      t.used <- t.used + sz;
      push_front t n);
  shed t

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table k;
      t.used <- t.used - n.size

let count t = Hashtbl.length t.table
let bytes t = t.used
let budget t = t.budget
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let keys_newest_first t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head

let stats t =
  Printf.sprintf "lru: %d entries, %d/%d bytes, %d hits / %d misses, %d evictions"
    (count t) t.used t.budget t.hits t.misses t.evictions
