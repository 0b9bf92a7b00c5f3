open Lb_shmem

type outcome = { exec : Execution.t; enter_order : int list }

exception Check_failed of { algo : string; n : int; reason : string }

let fail algo ~n reason =
  raise (Check_failed { algo = algo.Algorithm.name; n; reason })

let validate algo ~n ~rounds exec =
  let r = Replay.run ~n exec in
  Option.iter (fun v -> fail algo ~n (Checker.violation_to_string v)) r.Replay.violation;
  Array.iteri
    (fun i c ->
      if c <> rounds then
        fail algo ~n
          (Printf.sprintf "p%d completed %d sections, expected %d" i c rounds))
    r.Replay.sections;
  { exec; enter_order = r.Replay.order }

let run ?order ?(max_steps = 1_000_000) algo ~n =
  let order = match order with Some o -> o | None -> Array.init n (fun i -> i) in
  if Array.length order <> n then invalid_arg "Canonical.run: bad order length";
  let exec, _sys =
    try Runner.run algo ~n ~max_steps (Runner.sc_greedy ~order)
    with
    | Runner.Stuck -> fail algo ~n "deadlock under greedy schedule"
    | Runner.Out_of_fuel _ -> fail algo ~n "out of fuel under greedy schedule"
  in
  validate algo ~n ~rounds:1 exec

let run_round_robin ?(rounds = 1) ?(max_steps = 1_000_000) algo ~n =
  let exec, _sys =
    try Runner.run algo ~n ~max_steps (Runner.round_robin ~rounds ())
    with
    | Runner.Stuck -> fail algo ~n "deadlock under round-robin schedule"
    | Runner.Out_of_fuel _ ->
      fail algo ~n "out of fuel under round-robin schedule (livelock?)"
  in
  validate algo ~n ~rounds exec

let run_random ~seed ?(rounds = 1) ?(max_steps = 1_000_000) algo ~n =
  let rng = Lb_util.Rng.create seed in
  let exec, _sys =
    try Runner.run algo ~n ~max_steps (Runner.random rng ~rounds ())
    with
    | Runner.Stuck -> fail algo ~n "deadlock under random schedule"
    | Runner.Out_of_fuel _ ->
      fail algo ~n "out of fuel under random schedule (livelock?)"
  in
  validate algo ~n ~rounds exec

let sc_cost algo ~n outcome = Lb_cost.State_change.cost algo ~n outcome.exec
