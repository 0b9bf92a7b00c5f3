module Poset = Lb_core.Poset

let chain n =
  let p = Poset.create () in
  for i = 0 to n - 1 do
    Poset.add_element p i
  done;
  for i = 0 to n - 2 do
    Poset.add_edge p i (i + 1)
  done;
  p

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  let p = Poset.create () in
  List.iter (Poset.add_element p) [ 0; 1; 2; 3 ];
  List.iter (fun (a, b) -> Poset.add_edge p a b) [ (0, 1); (0, 2); (1, 3); (2, 3) ];
  p

let test_elements () =
  let p = chain 4 in
  Alcotest.(check int) "cardinal" 4 (Poset.cardinal p);
  Alcotest.(check (list int)) "elements" [ 0; 1; 2; 3 ] (Poset.elements p);
  Alcotest.(check bool) "mem" true (Poset.mem p 2);
  Alcotest.(check bool) "not mem" false (Poset.mem p 9);
  Alcotest.check_raises "duplicate" (Invalid_argument "Poset.add_element: duplicate")
    (fun () -> Poset.add_element p 0)

let test_leq_chain () =
  let p = chain 5 in
  Alcotest.(check bool) "0 <= 4" true (Poset.leq p 0 4);
  Alcotest.(check bool) "4 <= 0 false" false (Poset.leq p 4 0);
  Alcotest.(check bool) "reflexive" true (Poset.leq p 2 2)

let test_leq_diamond () =
  let p = diamond () in
  Alcotest.(check bool) "0 <= 3" true (Poset.leq p 0 3);
  Alcotest.(check bool) "1 and 2 incomparable" false
    (Poset.leq p 1 2 || Poset.leq p 2 1)

let test_cycle_rejected () =
  let p = chain 3 in
  (match Poset.add_edge p 2 0 with
  | () -> Alcotest.fail "cycle accepted"
  | exception Poset.Cycle (2, 0) -> ());
  (* self edges are ignored, duplicates idempotent *)
  Poset.add_edge p 1 1;
  Poset.add_edge p 0 1;
  Alcotest.(check (list int)) "no duplicate succ" [ 1 ] (Poset.succs p 0)

let test_down_set () =
  let p = diamond () in
  Alcotest.(check (list int)) "down of 3" [ 0; 1; 2; 3 ]
    (List.sort compare (Poset.down_set p 3));
  Alcotest.(check (list int)) "down of 1" [ 0; 1 ]
    (List.sort compare (Poset.down_set p 1));
  Alcotest.(check (list int)) "down of 0" [ 0 ] (Poset.down_set p 0)

let test_down_set_stopping () =
  let p = chain 5 in
  Alcotest.(check (list int)) "stop at executed" [ 3; 4 ]
    (List.sort compare
       (Poset.down_set_stopping p 4 ~stop:(fun x -> x <= 2)));
  Alcotest.(check (list int)) "stopped root" []
    (Poset.down_set_stopping p 4 ~stop:(fun _ -> true))

let test_extremes () =
  let p = diamond () in
  Alcotest.(check (list int)) "maximal among all" [ 3 ]
    (Poset.maximal_among p [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int)) "maximal among 1,2" [ 1; 2 ]
    (List.sort compare (Poset.maximal_among p [ 1; 2 ]));
  Alcotest.(check (list int)) "minimal among all" [ 0 ]
    (Poset.minimal_among p [ 0; 1; 2; 3 ])

let test_topo_sort () =
  let p = diamond () in
  Alcotest.(check (list int)) "deterministic topo" [ 0; 1; 2; 3 ]
    (Poset.topo_sort p [ 3; 2; 1; 0 ]);
  (* subset sort *)
  Alcotest.(check (list int)) "subset" [ 1; 3 ] (Poset.topo_sort p [ 3; 1 ])

let test_is_chain () =
  let p = diamond () in
  Alcotest.(check bool) "chain 0,1,3" true (Poset.is_chain p [ 0; 1; 3 ]);
  Alcotest.(check bool) "not chain 1,2" false (Poset.is_chain p [ 1; 2 ]);
  Alcotest.(check bool) "empty chain" true (Poset.is_chain p [])

(* random DAG property tests *)

let random_dag seed size =
  let rng = Lb_util.Rng.create seed in
  let p = Poset.create () in
  for i = 0 to size - 1 do
    Poset.add_element p i
  done;
  (* only forward edges: guaranteed acyclic *)
  for i = 0 to size - 1 do
    for j = i + 1 to size - 1 do
      if Lb_util.Rng.int rng 4 = 0 then Poset.add_edge p i j
    done
  done;
  p

let topo_respects_order =
  QCheck.Test.make ~name:"topo_sort respects leq" ~count:50
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, size) ->
      let p = random_dag seed size in
      let order = Poset.topo_sort p (Poset.elements p) in
      let pos = Hashtbl.create size in
      List.iteri (fun i x -> Hashtbl.replace pos x i) order;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (not (Poset.leq p a b)) || a = b
              || Hashtbl.find pos a < Hashtbl.find pos b)
            (Poset.elements p))
        (Poset.elements p))

let down_set_is_leq =
  QCheck.Test.make ~name:"down_set = {x | x leq m}" ~count:50
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, size) ->
      let p = random_dag seed size in
      List.for_all
        (fun m ->
          let ds = List.sort_uniq compare (Poset.down_set p m) in
          let expected =
            List.filter (fun x -> Poset.leq p x m) (Poset.elements p)
          in
          ds = List.sort compare expected)
        (Poset.elements p))

let leq_transitive =
  QCheck.Test.make ~name:"leq transitive" ~count:30
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, size) ->
      let p = random_dag seed size in
      let els = Poset.elements p in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.for_all
                (fun c ->
                  (not (Poset.leq p a b && Poset.leq p b c)) || Poset.leq p a c)
                els)
            els)
        els)

(* The original Hashtbl-backed implementation, kept as a naive reference
   for the array-backed one: per-query hash tables, O(k^2) leq calls in
   maximal_among / minimal_among. *)
module Naive = struct
  type t = {
    order : int list ref;  (* registration order, reversed *)
    preds : (int, int list ref) Hashtbl.t;
    succs : (int, int list ref) Hashtbl.t;
    edges : (int * int, unit) Hashtbl.t;
  }

  let create () =
    {
      order = ref [];
      preds = Hashtbl.create 64;
      succs = Hashtbl.create 64;
      edges = Hashtbl.create 64;
    }

  let add_element t id =
    if Hashtbl.mem t.preds id then invalid_arg "Poset.add_element: duplicate";
    Hashtbl.replace t.preds id (ref []);
    Hashtbl.replace t.succs id (ref []);
    t.order := id :: !(t.order)

  let elements t = List.rev !(t.order)

  let check t id =
    if not (Hashtbl.mem t.preds id) then
      invalid_arg (Printf.sprintf "Poset: unknown element %d" id)

  let preds t id =
    check t id;
    !(Hashtbl.find t.preds id)

  let succs t id =
    check t id;
    !(Hashtbl.find t.succs id)

  let reaches t a b =
    if a = b then true
    else begin
      let visited = Hashtbl.create 16 in
      let queue = Queue.create () in
      Queue.push a queue;
      Hashtbl.replace visited a ();
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        List.iter
          (fun y ->
            if y = b then found := true
            else if not (Hashtbl.mem visited y) then begin
              Hashtbl.replace visited y ();
              Queue.push y queue
            end)
          (succs t x)
      done;
      !found
    end

  let leq t a b =
    check t a;
    check t b;
    reaches t a b

  let add_edge t a b =
    check t a;
    check t b;
    if a <> b && not (Hashtbl.mem t.edges (a, b)) then begin
      if reaches t b a then raise (Poset.Cycle (a, b));
      Hashtbl.replace t.edges (a, b) ();
      let sa = Hashtbl.find t.succs a and pb = Hashtbl.find t.preds b in
      sa := b :: !sa;
      pb := a :: !pb
    end

  let down_set_stopping t m ~stop =
    check t m;
    if stop m then []
    else begin
      let visited = Hashtbl.create 16 in
      let queue = Queue.create () in
      Queue.push m queue;
      Hashtbl.replace visited m ();
      let out = ref [ m ] in
      while not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        List.iter
          (fun y ->
            if (not (Hashtbl.mem visited y)) && not (stop y) then begin
              Hashtbl.replace visited y ();
              out := y :: !out;
              Queue.push y queue
            end)
          (preds t x)
      done;
      !out
    end

  let down_set t m = down_set_stopping t m ~stop:(fun _ -> false)

  let maximal_among t xs =
    List.filter
      (fun x -> not (List.exists (fun y -> x <> y && leq t x y) xs))
      xs

  let minimal_among t xs =
    List.filter
      (fun x -> not (List.exists (fun y -> x <> y && leq t y x) xs))
      xs

  let topo_sort t xs =
    let inset = Hashtbl.create (List.length xs) in
    List.iter (fun x -> Hashtbl.replace inset x ()) xs;
    let indeg = Hashtbl.create (List.length xs) in
    List.iter
      (fun x ->
        let d =
          List.length (List.filter (fun p -> Hashtbl.mem inset p) (preds t x))
        in
        Hashtbl.replace indeg x d)
      xs;
    let module Iset = Set.Make (Int) in
    let ready = ref Iset.empty in
    List.iter
      (fun x -> if Hashtbl.find indeg x = 0 then ready := Iset.add x !ready)
      xs;
    let out = ref [] in
    let count = ref 0 in
    while not (Iset.is_empty !ready) do
      let x = Iset.min_elt !ready in
      ready := Iset.remove x !ready;
      out := x :: !out;
      incr count;
      List.iter
        (fun y ->
          if Hashtbl.mem inset y then begin
            let d = Hashtbl.find indeg y - 1 in
            Hashtbl.replace indeg y d;
            if d = 0 then ready := Iset.add y !ready
          end)
        (succs t x)
    done;
    if !count <> List.length xs then
      invalid_arg "Poset.topo_sort: input not acyclic or contains duplicates";
    List.rev !out
end

(* Build both posets from one random script: ids registered in a
   shuffled order, then random edges in both directions (some close a
   cycle and must be refused identically by both). *)
let twin_posets seed size =
  let rng = Lb_util.Rng.create seed in
  let ids = Lb_util.Rng.permutation rng size in
  let p = Poset.create () and q = Naive.create () in
  Array.iter
    (fun id ->
      Poset.add_element p id;
      Naive.add_element q id)
    ids;
  let agree = ref true in
  for _ = 1 to 2 * size do
    let a = Lb_util.Rng.int rng size and b = Lb_util.Rng.int rng size in
    let outcome f = match f () with () -> None | exception Poset.Cycle (x, y) -> Some (x, y) in
    let r1 = outcome (fun () -> Poset.add_edge p a b) in
    let r2 = outcome (fun () -> Naive.add_edge q a b) in
    if r1 <> r2 then agree := false
  done;
  (p, q, rng, !agree)

let random_subset rng xs =
  List.filter (fun _ -> Lb_util.Rng.int rng 3 = 0) xs

let matches_naive_reference =
  QCheck.Test.make ~name:"array poset = naive reference" ~count:200
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, size) ->
      let p, q, rng, cycles_agree = twin_posets seed size in
      let els = Naive.elements q in
      let sub = random_subset rng els in
      let stop x = x mod 3 = 0 in
      cycles_agree
      && Poset.elements p = els
      && List.for_all
           (fun a ->
             Poset.preds p a = Naive.preds q a
             && Poset.succs p a = Naive.succs q a
             && Poset.down_set p a = Naive.down_set q a
             && Poset.down_set_stopping p a ~stop
                = Naive.down_set_stopping q a ~stop
             && List.for_all (fun b -> Poset.leq p a b = Naive.leq q a b) els)
           els
      && Poset.maximal_among p sub = Naive.maximal_among q sub
      && Poset.minimal_among p sub = Naive.minimal_among q sub
      && Poset.maximal_among p (sub @ sub) = Naive.maximal_among q (sub @ sub)
      && Poset.topo_sort p sub = Naive.topo_sort q sub
      && Poset.topo_sort p els = Naive.topo_sort q els)

let topo_sort_rejects_duplicates () =
  let p = diamond () in
  Alcotest.check_raises "duplicate input"
    (Invalid_argument "Poset.topo_sort: input not acyclic or contains duplicates")
    (fun () -> ignore (Poset.topo_sort p [ 1; 3; 1 ]));
  Alcotest.check_raises "unknown element"
    (Invalid_argument "Poset: unknown element 7")
    (fun () -> ignore (Poset.topo_sort p [ 1; 7 ]));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Poset.add_element: negative id")
    (fun () -> Poset.add_element p (-1));
  (* sparse ids grow the tables *)
  Poset.add_element p 1000;
  Poset.add_edge p 3 1000;
  Alcotest.(check bool) "0 <= 1000" true (Poset.leq p 0 1000);
  Alcotest.(check (list int)) "maximal across growth" [ 1000 ]
    (Poset.maximal_among p [ 0; 1000; 2 ])

let suite =
  [
    Alcotest.test_case "elements" `Quick test_elements;
    Alcotest.test_case "leq chain" `Quick test_leq_chain;
    Alcotest.test_case "leq diamond" `Quick test_leq_diamond;
    Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "down_set" `Quick test_down_set;
    Alcotest.test_case "down_set_stopping" `Quick test_down_set_stopping;
    Alcotest.test_case "maximal/minimal" `Quick test_extremes;
    Alcotest.test_case "topo_sort" `Quick test_topo_sort;
    Alcotest.test_case "is_chain" `Quick test_is_chain;
    QCheck_alcotest.to_alcotest topo_respects_order;
    QCheck_alcotest.to_alcotest down_set_is_leq;
    QCheck_alcotest.to_alcotest leq_transitive;
    QCheck_alcotest.to_alcotest matches_naive_reference;
    Alcotest.test_case "topo_sort checks + growth" `Quick
      topo_sort_rejects_duplicates;
  ]
