(** Fault descriptions: what goes wrong, to whom, and when.

    A {!plan} is a small, declarative, seed-reproducible description of
    the faults injected into one run of an algorithm. Plans are pure
    data — {!Inject} turns a plan into a wrapped {!Lb_shmem.Algorithm.t}
    that every existing engine (runner, checker, model checker, cost
    models, lint) consumes unchanged.

    The fault model follows the recoverable-mutual-exclusion literature
    (crash-stop with restart in the remainder section, shared registers
    surviving the crash) plus the classic weak-register failure modes
    (lost writes, stale reads, corrupted values) and scheduler
    starvation. Everything is deterministic: a fault fires as a function
    of the target process's own transition history, never of wall-clock
    time or engine scheduling, so model-check verdicts and detection
    matrices are reproducible bit-for-bit. *)

type point =
  | After_steps of int
      (** fire at the target's [k]-th automaton transition ([k >= 1]) *)
  | In_section of Lb_shmem.Step.crit
      (** fire immediately after the target performs the given critical
          step: [In_section Enter] = inside the critical section,
          [In_section Rem] = back in the remainder section, etc. *)

type fault =
  | Crash of { proc : int; at : point }
      (** crash-stop at the trigger point and restart as a fresh
          automaton (volatile local state lost, next step is [try]);
          shared registers persist — the RME durable-memory model. A
          crash [In_section Rem] is recovery-legal; anywhere else the
          restart re-issues [try] mid-cycle, which the checkers must
          flag as ill-formed (or the lost lock must deadlock). *)
  | Lost_write of { proc : int; nth : int }
      (** the target's [nth] write ([nth >= 1], counting its own writes)
          silently fails to reach shared memory: the automaton observes
          a normal [Ack] and proceeds; the register keeps its old
          value. *)
  | Stale_read of { proc : int; nth : int }
      (** the target's [nth] read returns the register's {e initial}
          value instead of the current one — the oldest possible stale
          view. *)
  | Corrupt_write of { proc : int; nth : int; off_domain : bool }
      (** the target's [nth] write stores a corrupted value. With
          [off_domain = false] the value is rotated within the
          register's declared {!Lb_shmem.Register.spec} domain (so type
          checks cannot catch it); with [off_domain = true] it is pushed
          past the domain's upper bound. Registers without a declared
          domain get [v + 1] either way. *)
  | Starve of { proc : int; from_ : int; len : int }
      (** the scheduler refuses to run the target during global steps
          [\[from_, from_ + len)] — a bounded unfair burst. Only
          meaningful to schedule-driven engines ({!Inject.starve});
          the model checker already explores all schedules and ignores
          it. *)

type plan = { label : string; faults : fault list }
(** A labelled bundle of faults. [label] must be non-empty and use only
    [a-z0-9_-] — it is spliced into the wrapped algorithm's name
    ([algo+label]) so every verdict and report names the injected
    fault. An empty [faults] list is legal (a control plan: the wrapper
    is exercised but nothing is injected). *)

val validate : n:int -> plan -> (unit, string) result
(** Structural validity for an [n]-process system: label well-formed,
    process indices in [\[0, n)], counters positive. *)

val validate_exn : n:int -> plan -> unit
(** Raises [Invalid_argument] with the {!validate} error. *)

val generate : Lb_util.Rng.t -> n:int -> plan
(** A random single-fault plan for fuzzing the detection machinery. The
    label encodes the drawn fault, so generated plans are
    self-describing and two draws of the same fault share a label. *)

val fault_to_string : fault -> string
(** Compact one-token rendering, e.g. ["crash_p0_at_enter"],
    ["lost_write_p1_nth2"]. Used in labels and matrix JSON. *)

val pp_plan : Format.formatter -> plan -> unit
