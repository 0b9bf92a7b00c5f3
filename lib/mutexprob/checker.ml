open Lb_shmem

type phase = Replay.phase = Remainder | Trying | Critical | Exit_section

let phase_name = Replay.phase_name

type violation = Replay.violation =
  | Not_well_formed of { who : int; at : int; detail : string }
  | Mutex_violated of { a : int; b : int; at : int }

let pp_violation ppf = function
  | Not_well_formed { who; at; detail } ->
    Format.fprintf ppf "well-formedness: p%d at step %d: %s" who at detail
  | Mutex_violated { a; b; at } ->
    Format.fprintf ppf "mutual exclusion: p%d and p%d both critical at step %d"
      a b at

let violation_to_string v = Format.asprintf "%a" pp_violation v

let check ~n alpha =
  match (Replay.run ~n alpha).Replay.violation with
  | None -> Ok ()
  | Some v -> Error v

let check_algorithm algo ~n alpha = Replay.verdict (Replay.run ~algo ~n alpha)
let phases_at ~n alpha ~upto = (Replay.run ~upto ~n alpha).Replay.phases
let completed_sections ~n alpha = (Replay.run ~n alpha).Replay.sections
