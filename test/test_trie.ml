(* Trie-order certify: Construct.run_family builds each construction
   exactly as Construct.run does, Pipeline.records returns the per-pi
   records in input order at every job count, and a family that fails
   raises what the per-pi sweep raises. *)

open Lb_shmem
module P = Lb_core.Permutation
module C = Lb_core.Construct
module M = Lb_core.Metastep
module Po = Lb_core.Poset
module Pl = Lb_core.Pipeline

let algos =
  List.map Lb_algos.Registry.find_exn
    [ "yang_anderson"; "bakery"; "tournament"; "filter" ]

(* A random family at [n]: a shuffled S_n slice, a sample, or a sample
   with duplicates, so trie order, input order and duplicate leaves all
   differ. *)
let family rng ~n kind =
  match kind with
  | `Shuffled ->
    let all = Array.of_list (P.all n) in
    Lb_util.Rng.shuffle rng all;
    Array.to_list (Array.sub all 0 (min 48 (Array.length all)))
  | `Sampled -> P.sample rng ~n ~count:24
  | `Duplicates ->
    let base = Array.of_list (P.sample rng ~n ~count:8) in
    List.init 20 (fun _ -> Lb_util.Rng.pick rng base)

let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let check_same_construction what (a : C.t) (b : C.t) =
  let eq name ok = Alcotest.(check bool) (what ^ ": " ^ name) true ok in
  eq "pi" (P.equal a.C.pi b.C.pi);
  eq "proc_meta" (a.C.proc_meta = b.C.proc_meta);
  (* iteration order included: the encoder walks write_chain *)
  eq "write_chain" (bindings a.C.write_chain = bindings b.C.write_chain);
  let elements = Po.elements a.C.order in
  eq "poset elements" (elements = Po.elements b.C.order);
  List.iter
    (fun id ->
      eq (Printf.sprintf "preds %d" id)
        (Po.preds a.C.order id = Po.preds b.C.order id);
      eq (Printf.sprintf "succs %d" id)
        (Po.succs a.C.order id = Po.succs b.C.order id))
    elements;
  eq "metastep count" (M.count a.C.arena = M.count b.C.arena);
  for id = 0 to M.count a.C.arena - 1 do
    eq (Printf.sprintf "metastep %d" id)
      (M.get a.C.arena id = M.get b.C.arena id)
  done

let test_family_matches_run () =
  let rng = Lb_util.Rng.create 15 in
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun n ->
          if Algorithm.supports algo n then
            List.iter
              (fun kind ->
                let pis = Array.of_list (family rng ~n kind) in
                let seen = Array.make (Array.length pis) 0 in
                C.run_family algo ~n (Array.to_list pis) (fun i c ->
                    seen.(i) <- seen.(i) + 1;
                    check_same_construction
                      (Printf.sprintf "%s n=%d pi=%s" algo.Algorithm.name n
                         (P.to_string pis.(i)))
                      c
                      (C.run algo ~n pis.(i)));
                Alcotest.(check bool)
                  "every index visited once" true
                  (Array.for_all (( = ) 1) seen))
              [ `Shuffled; `Sampled; `Duplicates ])
        [ 3; 4; 5; 6 ])
    algos

let test_records_match_per_pi () =
  let rng = Lb_util.Rng.create 16 in
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun (n, kind) ->
          let perms = family rng ~n kind in
          let expected =
            List.map (fun pi -> Pl.record_of_result (Pl.run_checked algo ~n pi)) perms
          in
          List.iter
            (fun jobs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s n=%d jobs=%d" algo.Algorithm.name n jobs)
                true
                (Pl.records algo ~n ~perms ~jobs () = expected))
            [ 1; 2 ])
        [ (4, `Shuffled); (5, `Duplicates); (6, `Sampled) ])
    algos;
  Alcotest.(check bool) "empty family" true
    (Pl.records (List.hd algos) ~n:3 ~perms:[] ~jobs:2 () = [])

(* Mutants of yang_anderson at n=3 that fail (stage-stuck or a failed
   check) for some but not all of S_3. Certify runs S_3 in descending
   order, so the trie walk meets the failing pi in another order than
   the input. At jobs=1 and at jobs=2 it must raise exactly what the
   first failing run_checked in input order raises: the per-pi Pool.map
   keeps the failure with the lowest input index. (yang_anderson's
   mutants fail fast; some bakery and filter mutants only fail after
   burning a stage's whole fuel.) *)
let test_errors_match_per_pi () =
  let n = 3 in
  let family = List.rev (P.all n) in
  let base = Lb_algos.Yang_anderson.algorithm in
  let cases = ref 0 in
  List.iter
    (fun op ->
      let algo = (Lb_mutate.Mutant.make base ~n op).Lb_mutate.Mutant.algo in
      let failures =
        List.filter_map
          (fun pi ->
            match Pl.run_checked algo ~n pi with
            | _ -> None
            | exception e -> Some e)
          family
      in
      if failures <> [] && List.length failures < List.length family then begin
        incr cases;
        let raised jobs =
          match Pl.certify algo ~n ~perms:family ~jobs () with
          | _ -> Alcotest.fail (algo.Algorithm.name ^ ": certify succeeded")
          | exception e -> e
        in
        let e = raised 1 in
        Alcotest.(check string)
          (algo.Algorithm.name ^ " jobs=1")
          (Printexc.to_string (List.hd failures))
          (Printexc.to_string e);
        Alcotest.(check bool) "same exception value" true (e = List.hd failures);
        Alcotest.(check bool)
          (algo.Algorithm.name ^ " jobs=2 raises the first per-pi failure")
          true
          (raised 2 = List.hd failures)
      end)
    (Lb_mutate.Op.sites (Lb_analysis.Automaton.explore base ~n));
  Alcotest.(check bool) "some mutant fails part of the family" true (!cases >= 3)

(* A filter mutant whose failures differ by stage: over S_3 in
   descending order it used to raise Stage_stuck at stage 2 with one job
   and at stage 1 with two. Its failing pi burn a stage's whole fuel, so
   this runs a few seconds. *)
let test_filter_mutant_same_error () =
  let n = 3 in
  let base = Lb_algos.Filter.algorithm in
  let name = "filter!reg_swap@level2+victim1" in
  let algo =
    List.find_map
      (fun op ->
        let a = (Lb_mutate.Mutant.make base ~n op).Lb_mutate.Mutant.algo in
        if a.Algorithm.name = name then Some a else None)
      (Lb_mutate.Op.sites (Lb_analysis.Automaton.explore base ~n))
    |> Option.get
  in
  let family = List.rev (P.all n) in
  let raised jobs =
    match Pl.certify algo ~n ~perms:family ~jobs () with
    | _ -> Alcotest.fail (name ^ ": certify succeeded")
    | exception e -> Printexc.to_string e
  in
  Alcotest.(check string) "jobs 1 = jobs 2" (raised 1) (raised 2)

let suite =
  [
    Alcotest.test_case "run_family = run per pi" `Quick test_family_matches_run;
    Alcotest.test_case "records = per-pi records" `Quick test_records_match_per_pi;
    Alcotest.test_case "errors match the per-pi sweep" `Quick
      test_errors_match_per_pi;
    Alcotest.test_case "filter mutant: same error at any jobs" `Slow
      test_filter_mutant_same_error;
  ]
