(** The state change (SC) cost model — Definition 3.1 of the paper.

    A step is charged one unit iff it is a shared-memory access (read,
    write, or rmw) {e and} the issuing process's local state after the step
    differs from its state before. Critical steps are free even though they
    change state. Consequently a process busy-waiting on one register —
    repeatedly reading it without changing state — is charged only for the
    final read that actually wakes it. Writes always cost one unit: a
    process that did not change state after a write would be stuck in that
    state forever (footnote 6).

    [cost] and [per_process] are views of the one replay pass,
    {!Lb_shmem.Replay.run}, which checks the execution in the same walk. *)

val cost : Lb_shmem.Algorithm.t -> n:int -> Lb_shmem.Execution.t -> int
(** [cost algo ~n alpha] is [C(alpha)], the total SC cost. Raises
    [System.Step_mismatch] when [alpha] is not an execution of [algo]. *)

val per_process :
  Lb_shmem.Algorithm.t -> n:int -> Lb_shmem.Execution.t -> int array
(** Per-process breakdown; [cost] is its sum. *)

val charged_steps :
  Lb_shmem.Algorithm.t -> n:int -> Lb_shmem.Execution.t -> bool array
(** [charged_steps algo ~n alpha] marks, for each index [j] of [alpha],
    whether [sc(alpha, who_j, j) = 1]. Useful for tests that pin down
    exactly which steps the model charges. *)
