(* The one replay pass (Lb_shmem.Replay) against the code it replaced.
   [Naive] keeps the checker's phase scan, the per-step cost fold, the
   list-filter projections, the Buffer/string_of_int fingerprint and the
   pipeline's staged checks as they were before the pass existed; every
   view of the pass must agree with them exactly — verdicts (violation
   values and mismatch strings), raised exceptions, cost, sections,
   order, phases, projections and fingerprints — on valid executions of
   the zoo and on corrupted ones. A last test counts [advance] calls to
   show each certified pi replays each of its two executions once. *)

open Lb_shmem
module Checker = Lb_mutex.Checker
module P = Lb_core.Permutation
module Pl = Lb_core.Pipeline

module Naive = struct
  open Checker

  let advance_phase phase (c : Step.crit) =
    match phase, c with
    | Remainder, Step.Try -> Ok Trying
    | Trying, Step.Enter -> Ok Critical
    | Critical, Step.Exit -> Ok Exit_section
    | Exit_section, Step.Rem -> Ok Remainder
    | _, c ->
      Error
        (Printf.sprintf "%s step while in %s section" (Step.crit_name c)
           (phase_name phase))

  let scan ~n alpha ~upto ~on_violation =
    let phases = Array.make n Remainder in
    let in_cs = ref None in
    let exception Stop in
    (try
       for j = 0 to upto - 1 do
         let (s : Step.t) = Execution.get alpha j in
         if s.Step.who < 0 || s.Step.who >= n then begin
           on_violation
             (Not_well_formed
                { who = s.Step.who; at = j; detail = "process index out of range" });
           raise Stop
         end;
         match s.Step.action with
         | Step.Read _ | Step.Write _ | Step.Rmw _ -> ()
         | Step.Crit c -> (
           match advance_phase phases.(s.Step.who) c with
           | Error detail ->
             on_violation (Not_well_formed { who = s.Step.who; at = j; detail });
             raise Stop
           | Ok next ->
             phases.(s.Step.who) <- next;
             (match next, !in_cs with
             | Critical, Some other when other <> s.Step.who ->
               on_violation (Mutex_violated { a = other; b = s.Step.who; at = j });
               raise Stop
             | Critical, _ -> in_cs := Some s.Step.who
             | Exit_section, Some other when other = s.Step.who -> in_cs := None
             | (Remainder | Trying | Exit_section), _ -> ()))
       done
     with Stop -> ());
    phases

  let check ~n alpha =
    let result = ref (Ok ()) in
    ignore
      (scan ~n alpha ~upto:(Execution.length alpha) ~on_violation:(fun v ->
           result := Error v));
    !result

  let check_algorithm algo ~n alpha =
    match check ~n alpha with
    | Error v -> Error (`Violation v)
    | Ok () -> (
      try
        ignore (Execution.replay algo ~n alpha);
        Ok ()
      with System.Step_mismatch { who; expected; actual } ->
        Error
          (`Mismatch
            (Format.asprintf "p%d expected %a but trace has %a" who
               Step.pp_action expected Step.pp_action actual)))

  let phases_at ~n alpha ~upto = scan ~n alpha ~upto ~on_violation:(fun _ -> ())

  let completed_sections ~n alpha =
    let counts = Array.make n 0 in
    Lb_util.Vec.iter
      (fun (s : Step.t) ->
        match s.Step.action with
        | Step.Crit Step.Rem when s.Step.who >= 0 && s.Step.who < n ->
          counts.(s.Step.who) <- counts.(s.Step.who) + 1
        | Step.Crit _ | Step.Read _ | Step.Write _ | Step.Rmw _ -> ())
      alpha;
    counts

  let crit_order t =
    let seen = Hashtbl.create 16 in
    let order = ref [] in
    Lb_util.Vec.iter
      (fun (s : Step.t) ->
        match s.Step.action with
        | Step.Crit Step.Enter ->
          if not (Hashtbl.mem seen s.Step.who) then begin
            Hashtbl.add seen s.Step.who ();
            order := s.Step.who :: !order
          end
        | Step.Read _ | Step.Write _ | Step.Rmw _
        | Step.Crit (Step.Try | Step.Exit | Step.Rem) -> ())
      t;
    List.rev !order

  let per_process algo ~n alpha =
    let counts = Array.make n 0 in
    ignore
      (Execution.fold_outcomes algo ~n alpha ~init:()
         ~f:(fun () _sys (step : Step.t) (outcome : System.outcome) ->
           if Step.is_shared_access step.Step.action && outcome.System.state_changed
           then counts.(step.Step.who) <- counts.(step.Step.who) + 1));
    counts

  let cost algo ~n alpha = Array.fold_left ( + ) 0 (per_process algo ~n alpha)

  let projection t i =
    List.filter (fun (s : Step.t) -> s.Step.who = i) (Execution.steps t)

  let fingerprint t =
    let buf = Buffer.create 64 in
    Lb_util.Vec.iter
      (fun s ->
        Buffer.add_string buf (Step.to_string s);
        Buffer.add_char buf ';')
      t;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  let ( let* ) = Result.bind

  let check_execution algo ~n ~stage pi exec =
    let fail fmt = Printf.ksprintf (fun m -> Error (stage, m)) fmt in
    let* () =
      match check_algorithm algo ~n exec with
      | Ok () -> Ok ()
      | Error (`Violation v) -> fail "%s" (violation_to_string v)
      | Error (`Mismatch m) -> fail "replay: %s" m
    in
    let* () =
      if Array.for_all (fun c -> c = 1) (completed_sections ~n exec) then Ok ()
      else fail "not every process completed once"
    in
    let order = crit_order exec in
    if order = Array.to_list (P.to_array pi) then Ok ()
    else
      fail "CS order %s differs from pi %s"
        (String.concat "," (List.map string_of_int order))
        (P.to_string pi)

  let check_staged algo ~n (r : Pl.result) =
    let* () = check_execution algo ~n ~stage:"canonical" r.Pl.pi r.Pl.canonical in
    let* () = check_execution algo ~n ~stage:"decoded" r.Pl.pi r.Pl.decoded in
    let* () =
      let rec go i =
        if i >= n then Ok ()
        else if
          List.equal Step.equal (projection r.Pl.decoded i)
            (projection r.Pl.canonical i)
        then go (i + 1)
        else Error ("projection", Printf.sprintf "projection of p%d differs" i)
      in
      go 0
    in
    let* () =
      let dc = cost algo ~n r.Pl.decoded in
      if dc = r.Pl.cost then Ok ()
      else
        Error
          ( "cost",
            Printf.sprintf "decoded cost %d <> canonical cost %d" dc r.Pl.cost )
    in
    let* () =
      if r.Pl.bits > 0 then Ok () else Error ("encoding", "empty encoding")
    in
    let reparsed = Lb_core.Encode.parse ~n r.Pl.encoding.Lb_core.Encode.bits in
    if reparsed = r.Pl.encoding.Lb_core.Encode.cells then Ok ()
    else Error ("roundtrip", "cells do not round-trip through the binary form")

  let pipeline_check algo ~n r =
    match check_staged algo ~n r with
    | Ok () -> Ok ()
    | Error (stage, message) -> Error (stage ^ ": " ^ message)
end

(* A value, or the text of the exception computing it raised. *)
let catch f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* One of the ways an execution can be broken, at a random place. *)
let corrupt rng ~n exec =
  let steps = Array.of_list (Execution.steps exec) in
  let len = Array.length steps in
  let at = if len = 0 then 0 else Random.State.int rng len in
  let l = Array.to_list steps in
  let with_at f = List.concat (List.mapi (fun i s -> if i = at then f s else [ s ]) l) in
  let kinds : [ `Swap | `Drop | `Dup | `Who | `Double_enter | `Same ] array =
    [| `Swap; `Drop; `Dup; `Who; `Double_enter; `Same |]
  in
  match kinds.(Random.State.int rng (Array.length kinds)) with
  | _ when len = 0 -> exec
  | `Same -> exec
  | `Swap when at + 1 < len ->
    let s = Array.copy steps in
    s.(at) <- steps.(at + 1);
    s.(at + 1) <- steps.(at);
    Execution.of_steps (Array.to_list s)
  | `Swap | `Drop -> Execution.of_steps (with_at (fun _ -> []))
  | `Dup -> Execution.of_steps (with_at (fun s -> [ s; s ]))
  | `Who ->
    let who = if Random.State.bool rng then n + Random.State.int rng 3 else -1 in
    Execution.of_steps (with_at (fun s -> [ { s with Step.who } ]))
  | `Double_enter ->
    Execution.of_steps
      (List.concat_map
         (fun (s : Step.t) ->
           match s.Step.action with
           | Step.Crit Step.Enter when s.Step.who = at mod n -> [ s; s ]
           | _ -> [ s ])
         l)

let same what a b = Alcotest.(check bool) what true (a = b)

(* Every view of the pass against [Naive] on one execution. *)
let compare_views rng algo ~n exec =
  let name = algo.Algorithm.name ^ " n=" ^ string_of_int n in
  same (name ^ ": check") (catch (fun () -> Naive.check ~n exec))
    (catch (fun () -> Checker.check ~n exec));
  same (name ^ ": check_algorithm")
    (catch (fun () -> Naive.check_algorithm algo ~n exec))
    (catch (fun () -> Checker.check_algorithm algo ~n exec));
  let upto = Random.State.int rng (Execution.length exec + 1) in
  same (name ^ ": phases_at")
    (Naive.phases_at ~n exec ~upto) (Checker.phases_at ~n exec ~upto);
  same (name ^ ": sections")
    (Naive.completed_sections ~n exec) (Checker.completed_sections ~n exec);
  same (name ^ ": crit_order") (Naive.crit_order exec) (Execution.crit_order exec);
  same (name ^ ": per_process")
    (catch (fun () -> Naive.per_process algo ~n exec))
    (catch (fun () -> Lb_cost.State_change.per_process algo ~n exec));
  same (name ^ ": cost")
    (catch (fun () -> Naive.cost algo ~n exec))
    (catch (fun () -> Lb_cost.State_change.cost algo ~n exec));
  let fp = Naive.fingerprint exec in
  same (name ^ ": fingerprint") fp (Execution.fingerprint exec);
  let r = Replay.run ~algo ~projections:true ~fingerprint:true ~n exec in
  same (name ^ ": pass fingerprint") fp r.Replay.fingerprint;
  for i = 0 to n - 1 do
    same (name ^ ": projection") (Naive.projection exec i) (Execution.projection exec i);
    same (name ^ ": pass projection") (Naive.projection exec i)
      (List.rev r.Replay.steps_rev.(i))
  done

(* Random schedules of every zoo algorithm (rmw ones and the broken
   spinlock, whose schedules overlap critical sections, included) at
   n = 2..5, and the pipeline's canonical and decoded executions of the
   register ones, each left alone or corrupted once. *)
let views_match_naive =
  QCheck.Test.make ~name:"replay pass = naive checker, cost, fingerprint" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let zoo = List.filter (fun a -> Algorithm.supports a n) Lb_algos.Registry.all in
      let algo = List.nth zoo (Random.State.int rng (List.length zoo)) in
      let exec =
        if Algorithm.registers_only algo && Random.State.bool rng then begin
          let r = Pl.run algo ~n (P.random (Lb_util.Rng.create seed) n) in
          Some (if Random.State.bool rng then r.Pl.canonical else r.Pl.decoded)
        end
        else
          match
            Runner.run algo ~n ~max_steps:3000
              (Runner.random (Lb_util.Rng.create seed) ~rounds:2 ())
          with
          | exec, _ -> Some exec
          | exception Runner.Stuck -> None
      in
      Option.iter (fun e -> compare_views rng algo ~n (corrupt rng ~n e)) exec;
      true)

(* Pipeline.check against the staged checks it replaced, on whole
   results with one execution corrupted, the wrong pi, a wrong cost, a
   decode that dropped a step or one replaced by a greedy schedule —
   and on the broken spinlock, whose decode overlaps critical
   sections. *)
let check_matches_naive =
  QCheck.Test.make ~name:"Pipeline.check = naive check_staged" ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let algos =
        Lb_algos.Broken_spinlock.algorithm
        :: List.filter (fun a -> Algorithm.supports a n) Lb_algos.Registry.register_based
      in
      let algo = List.nth algos (Random.State.int rng (List.length algos)) in
      let pi = P.random (Lb_util.Rng.create seed) n in
      let r = Pl.run algo ~n pi in
      let drop_last e =
        Execution.of_steps
          (List.filteri (fun i _ -> i < Execution.length e - 1) (Execution.steps e))
      in
      let variants =
        [
          r;
          { r with Pl.decoded = corrupt rng ~n r.Pl.decoded };
          { r with Pl.canonical = corrupt rng ~n r.Pl.canonical };
          { r with Pl.decoded = drop_last r.Pl.decoded };
          { r with Pl.pi = P.random (Lb_util.Rng.create (seed + 1)) n };
          { r with Pl.cost = r.Pl.cost + 1 };
        ]
        @
        (* another valid execution with the CS order pi: the checks
           reach the projections and the cost *)
        match Lb_mutex.Canonical.run ~order:(P.to_array pi) algo ~n with
        | o -> [ { r with Pl.decoded = o.Lb_mutex.Canonical.exec } ]
        | exception Lb_mutex.Canonical.Check_failed _ -> []
      in
      List.iter
        (fun v ->
          same "check" (catch (fun () -> Naive.pipeline_check algo ~n v))
            (catch (fun () -> Pl.check algo ~n v)))
        variants;
      true)

let test_fingerprint_extremes () =
  let steps =
    List.map
      (fun (who, action) -> Step.step who action)
      [
        (0, Step.Write (0, min_int));
        (1, Step.Write (max_int, -1));
        (-7, Step.Read 10);
        (9, Step.Rmw (3, Step.Cas { expect = -12; replace = 100 }));
        (10, Step.Crit Step.Rem);
      ]
  in
  let e = Execution.of_steps steps in
  Alcotest.(check string) "same bytes" (Naive.fingerprint e) (Execution.fingerprint e)

(* [algo] with every process's [advance] counted. *)
let counting (algo : Algorithm.t) count =
  let rec wrap (p : Proc.t) =
    {
      p with
      Proc.advance =
        (fun resp ->
          Atomic.incr count;
          wrap (p.Proc.advance resp));
    }
  in
  { algo with Algorithm.spawn = (fun ~n ~me -> wrap (algo.Algorithm.spawn ~n ~me)) }

(* A certified pi costs its construction, its decode, and one replay of
   each execution: one advance per step of the canonical execution and
   one per step of the decoded one. *)
let test_two_replays_per_pi () =
  List.iter
    (fun name ->
      let count = Atomic.make 0 in
      let algo = counting (Lb_algos.Registry.find_exn name) count in
      List.iter
        (fun (n, pi) ->
          Atomic.set count 0;
          let c = Lb_core.Construct.run algo ~n pi in
          let e = Lb_core.Encode.encode c in
          let canonical = Lb_core.Linearize.execution c in
          let decoded = Lb_core.Decode.run_bits algo ~n e.Lb_core.Encode.bits in
          let expected =
            Atomic.get count + Execution.length canonical + Execution.length decoded
          in
          let counted f =
            Atomic.set count 0;
            ignore (f ());
            Atomic.get count
          in
          let what = Printf.sprintf "%s n=%d %s" name n (P.to_string pi) in
          Alcotest.(check int) (what ^ ": records") expected
            (counted (fun () -> Pl.records algo ~n ~perms:[ pi ] ~jobs:1 ()));
          Alcotest.(check int) (what ^ ": run_record") expected
            (counted (fun () -> Pl.run_record algo ~n pi)))
        [ (3, P.reverse 3); (4, P.identity 4); (5, P.of_array [| 2; 0; 4; 1; 3 |]) ])
    [ "yang_anderson"; "bakery"; "tournament" ]

let suite =
  [
    QCheck_alcotest.to_alcotest views_match_naive;
    QCheck_alcotest.to_alcotest check_matches_naive;
    Alcotest.test_case "fingerprint of extreme values" `Quick test_fingerprint_extremes;
    Alcotest.test_case "two replays per pi" `Quick test_two_replays_per_pi;
  ]
