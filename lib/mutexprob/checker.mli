(** Execution checkers for the mutual exclusion problem (paper §3.2).

    The paper demands of every finite execution: {e well-formedness} (each
    process's critical steps form a prefix of try·enter·exit·rem repeated)
    and {e mutual exclusion} (no two processes simultaneously between
    [enter] and [exit]). Livelock freedom quantifies over fair infinite
    executions and cannot be decided from one finite trace; the drivers in
    {!Canonical} and the explorer in {!Model_check} check the finite
    consequences we rely on (every scheduled process completes, no
    reachable deadlock).

    Every check here is a view of the one replay pass,
    {!Lb_shmem.Replay.run}, which also gives the pipeline its SC cost,
    projections and fingerprint from the same walk. *)

type phase = Lb_shmem.Replay.phase = Remainder | Trying | Critical | Exit_section

val phase_name : phase -> string

type violation = Lb_shmem.Replay.violation =
  | Not_well_formed of { who : int; at : int; detail : string }
  | Mutex_violated of { a : int; b : int; at : int }

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string

val check : n:int -> Lb_shmem.Execution.t -> (unit, violation) result
(** Structural check of well-formedness and mutual exclusion. Does not
    replay the automata — combine with {!Lb_shmem.Execution.replay} to also
    validate that the trace is an execution of a given algorithm. *)

val check_algorithm :
  Lb_shmem.Algorithm.t ->
  n:int ->
  Lb_shmem.Execution.t ->
  (unit, [ `Violation of violation | `Mismatch of string ]) result
(** {!check} plus a replay through the algorithm's automata, in the same
    pass. A violation wins over a replay mismatch; any other replay
    failure is re-raised when there is no violation. *)

val phases_at : n:int -> Lb_shmem.Execution.t -> upto:int -> phase array
(** Phase of every process after the first [upto] steps. *)

val completed_sections : n:int -> Lb_shmem.Execution.t -> int array
(** Number of completed critical sections (= [rem] steps) per process. *)
