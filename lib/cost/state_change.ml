open Lb_shmem

let per_process algo ~n alpha = Replay.per_process (Replay.run ~algo ~n alpha)
let cost algo ~n alpha = Replay.cost (Replay.run ~algo ~n alpha)

let charged_steps algo ~n alpha =
  let marks = Array.make (Execution.length alpha) false in
  let idx = ref 0 in
  ignore
    (Execution.fold_outcomes algo ~n alpha ~init:()
       ~f:(fun () _sys (step : Step.t) (outcome : System.outcome) ->
         marks.(!idx) <-
           Step.is_shared_access step.Step.action && outcome.System.state_changed;
         incr idx));
  marks
