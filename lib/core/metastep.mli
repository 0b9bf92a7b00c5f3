(** Metasteps (paper Definition 5.1) and the arena holding them.

    A metastep bundles, for one register, a set of write steps, a single
    {e winning} write, and a set of read steps. Expanding it (see {!seq})
    emits the non-winning writes, then the winning write, then the reads —
    so the winner's value overwrites every other write before any reader
    looks, hiding the presence of all contained processes except possibly
    the winner. Read metasteps hold exactly one read; critical metasteps
    hold one critical step. *)

type id = int

type kind = Read_meta | Write_meta | Crit_meta

type t = {
  id : id;
  kind : kind;
  reg : Lb_shmem.Step.reg;  (** register accessed; [-1] for critical *)
  mutable reads : Lb_shmem.Step.t list;  (** read steps, insertion order *)
  mutable writes : Lb_shmem.Step.t list;
      (** non-winning write steps, insertion order *)
  mutable win : Lb_shmem.Step.t option;  (** the winning write *)
  crit : Lb_shmem.Step.t option;  (** the critical step, for [Crit_meta] *)
  mutable pread : id list;
      (** the preread set: read metasteps ordered just before this write
          metastep (paper §5.1) *)
  mutable pread_of : id option;
      (** for a read metastep: the write metastep whose pread set contains
          it, if any — determines its [PR]/[SR] encoding cell *)
}

type arena

val create_arena : unit -> arena

val copy_arena : arena -> arena
(** An independent copy with a fresh record per metastep, so the mutable
    fields of one arena's metasteps never change the other's. *)

val count : arena -> int

val get : arena -> id -> t

val iter : arena -> (t -> unit) -> unit

val new_write : arena -> reg:Lb_shmem.Step.reg -> win:Lb_shmem.Step.t -> t
(** Fresh write metastep whose winning step is [win]. *)

val new_read : arena -> reg:Lb_shmem.Step.reg -> read:Lb_shmem.Step.t -> t

val new_crit : arena -> crit:Lb_shmem.Step.t -> t

val add_read_step : t -> Lb_shmem.Step.t -> unit
(** Insert a read into a write metastep. Raises [Invalid_argument] if the
    metastep is not a write metastep, the register differs, or the process
    already has a step here. *)

val add_write_step : t -> Lb_shmem.Step.t -> unit
(** Insert a (non-winning) write into a write metastep; same checks. *)

val value : t -> Lb_shmem.Step.value
(** [val(m)]: the value written by the winning step of a write
    metastep. *)

val winner : t -> int
(** The process performing the winning step. *)

val own : t -> int list
(** All processes with a step in the metastep (paper's [own(m)]),
    in no particular order. *)

val contains : t -> int -> bool

val step_of : t -> int -> Lb_shmem.Step.t
(** [step(m, i)]: the step process [i] performs in [m]; raises
    [Not_found]. *)

val size : t -> int
(** Number of contained steps. *)

val seq : t -> Lb_shmem.Step.t list
(** The deterministic expansion used by our [Lin]: non-winning writes in
    ascending process order, then the winning write, then reads in
    ascending process order (an instance of the paper's nondeterministic
    [Seq]). *)

val pp : Format.formatter -> t -> unit
