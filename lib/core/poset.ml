module Vec = Lb_util.Vec

(* Metastep ids are dense small integers, so every per-element table is
   an array indexed by id, grown by doubling. Traversals mark visited
   elements in one reusable [stamp] array against a per-traversal
   generation — no table is allocated per query — and queue elements in
   the reusable [queue] array, which each element enters at most once
   per traversal. *)
type t = {
  order : int Vec.t;  (* registration order *)
  mutable present : Bytes.t;  (* '\001' at registered ids *)
  mutable preds : int list array;
  mutable succs : int list array;
  mutable stamp : int array;
  mutable gen : int;
  mutable queue : int array;
  mutable indeg : int array;  (* topo_sort scratch *)
}

exception Cycle of int * int

let initial_capacity = 64

let create () =
  {
    order = Vec.create ();
    present = Bytes.make initial_capacity '\000';
    preds = Array.make initial_capacity [];
    succs = Array.make initial_capacity [];
    stamp = Array.make initial_capacity 0;
    gen = 0;
    queue = Array.make initial_capacity 0;
    indeg = Array.make initial_capacity 0;
  }

(* Every array is copied, scratch included: the copy and the original
   may then be queried and grown independently. *)
let copy t =
  {
    order = Vec.copy t.order;
    present = Bytes.copy t.present;
    preds = Array.copy t.preds;
    succs = Array.copy t.succs;
    stamp = Array.copy t.stamp;
    gen = t.gen;
    queue = Array.copy t.queue;
    indeg = Array.copy t.indeg;
  }

let capacity t = Bytes.length t.present

let grow t id =
  let cap = capacity t in
  let cap' = max (id + 1) (2 * cap) in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let present = Bytes.make cap' '\000' in
  Bytes.blit t.present 0 present 0 cap;
  t.present <- present;
  t.preds <- extend t.preds [];
  t.succs <- extend t.succs [];
  t.stamp <- extend t.stamp 0;
  t.queue <- extend t.queue 0;
  t.indeg <- extend t.indeg 0

let mem t id =
  id >= 0 && id < capacity t && Bytes.unsafe_get t.present id <> '\000'

let add_element t id =
  if id < 0 then invalid_arg "Poset.add_element: negative id";
  if mem t id then invalid_arg "Poset.add_element: duplicate";
  if id >= capacity t then grow t id;
  Bytes.unsafe_set t.present id '\001';
  Vec.push t.order id

let cardinal t = Vec.length t.order
let elements t = Vec.to_list t.order

let check t id =
  if not (mem t id) then
    invalid_arg (Printf.sprintf "Poset: unknown element %d" id)

let preds t id =
  check t id;
  t.preds.(id)

let succs t id =
  check t id;
  t.succs.(id)

(* Start a traversal: every stamp below the returned generation [g] is
   stale. Each traversal reserves two marks, [g] and [g + 1]. *)
let next_gen t =
  t.gen <- t.gen + 2;
  t.gen

(* BFS over direct successors *)
let reaches t a b =
  a = b
  ||
  let g = next_gen t in
  let stamp = t.stamp and queue = t.queue in
  stamp.(a) <- g;
  queue.(0) <- a;
  let head = ref 0 and tail = ref 1 and found = ref false in
  while (not !found) && !head < !tail do
    let x = queue.(!head) in
    incr head;
    List.iter
      (fun y ->
        if y = b then found := true
        else if stamp.(y) < g then begin
          stamp.(y) <- g;
          queue.(!tail) <- y;
          incr tail
        end)
      t.succs.(x)
  done;
  !found

let leq t a b =
  check t a;
  check t b;
  reaches t a b

let add_edge t a b =
  check t a;
  check t b;
  if a <> b && not (List.mem b t.succs.(a)) then begin
    if reaches t b a then raise (Cycle (a, b));
    t.succs.(a) <- b :: t.succs.(a);
    t.preds.(b) <- a :: t.preds.(b)
  end

(* [stop] must not query this poset: the traversal owns the stamps. *)
let down_set_stopping t m ~stop =
  check t m;
  if stop m then []
  else begin
    let g = next_gen t in
    let stamp = t.stamp and queue = t.queue in
    stamp.(m) <- g;
    queue.(0) <- m;
    let head = ref 0 and tail = ref 1 in
    let out = ref [ m ] in
    while !head < !tail do
      let x = queue.(!head) in
      incr head;
      List.iter
        (fun y ->
          if stamp.(y) < g && not (stop y) then begin
            stamp.(y) <- g;
            out := y :: !out;
            queue.(!tail) <- y;
            incr tail
          end)
        t.preds.(x)
    done;
    !out
  end

let down_set t m = down_set_stopping t m ~stop:(fun _ -> false)

(* One multi-source BFS from [xs] along [next]: an element reached over
   at least one edge is stamped [g + 1] ("strictly beyond some x"); a
   source not (yet) reached that way is stamped [g]. The extremes are
   the sources left at [g], in input order. *)
let extremes_among t next xs =
  List.iter (check t) xs;
  let g = next_gen t in
  let stamp = t.stamp and queue = t.queue in
  let tail = ref 0 in
  List.iter
    (fun x ->
      if stamp.(x) < g then begin
        stamp.(x) <- g;
        queue.(!tail) <- x;
        incr tail
      end)
    xs;
  let head = ref 0 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    List.iter
      (fun y ->
        if stamp.(y) < g then begin
          queue.(!tail) <- y;
          incr tail
        end;
        stamp.(y) <- g + 1)
      next.(x)
  done;
  List.filter (fun x -> stamp.(x) = g) xs

let maximal_among t xs = extremes_among t t.preds xs
let minimal_among t xs = extremes_among t t.succs xs

(* Kahn's algorithm with the ready elements in a binary min-heap kept in
   the [queue] scratch array (each element enters it at most once), so
   the smallest ready id always comes out first. *)
let topo_sort t xs =
  let bad () =
    invalid_arg "Poset.topo_sort: input not acyclic or contains duplicates"
  in
  List.iter (check t) xs;
  match xs with
  | [ _ ] -> xs (* the common case in Construct: one newly reachable element *)
  | _ ->
    let g = next_gen t in
    let stamp = t.stamp and indeg = t.indeg and heap = t.queue in
    List.iter (fun x -> if stamp.(x) = g then bad () else stamp.(x) <- g) xs;
    let size = ref 0 in
    let push x =
      let i = ref !size in
      incr size;
      while !i > 0 && heap.((!i - 1) / 2) > x do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- x
    in
    let pop () =
      let top = heap.(0) in
      decr size;
      let x = heap.(!size) and i = ref 0 and placed = ref false in
      while not !placed do
        let l = (2 * !i) + 1 in
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if c < !size && heap.(c) < x then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else placed := true
      done;
      heap.(!i) <- x;
      top
    in
    List.iter
      (fun x ->
        let d =
          List.fold_left
            (fun d p -> if stamp.(p) = g then d + 1 else d)
            0 t.preds.(x)
        in
        indeg.(x) <- d;
        if d = 0 then push x)
      xs;
    let out = ref [] in
    let count = ref 0 in
    while !size > 0 do
      let x = pop () in
      out := x :: !out;
      incr count;
      List.iter
        (fun y ->
          if stamp.(y) = g then begin
            let d = indeg.(y) - 1 in
            indeg.(y) <- d;
            if d = 0 then push y
          end)
        t.succs.(x)
    done;
    if !count <> List.length xs then bad ();
    List.rev !out

let is_chain t xs =
  List.for_all
    (fun x -> List.for_all (fun y -> leq t x y || leq t y x) xs)
    xs
