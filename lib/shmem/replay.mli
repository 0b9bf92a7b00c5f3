(** One replay pass over an execution: the §3.2 phase scan
    (well-formedness and mutual exclusion) in lockstep with
    {!System.apply}, so the checker verdict, completed sections, CS
    order, SC cost, projections and fingerprint come from one walk.
    [Checker.check], [Checker.check_algorithm],
    [Checker.completed_sections], [Execution.crit_order],
    [Execution.fingerprint] and [State_change.cost] are views of it. *)

type phase = Remainder | Trying | Critical | Exit_section

val phase_name : phase -> string

type violation =
  | Not_well_formed of { who : int; at : int; detail : string }
      (** [who]'s step at index [at] breaks the try/enter/exit/rem
          cycle, or [who] is out of range *)
  | Mutex_violated of { a : int; b : int; at : int }
      (** at step index [at], processes [a] and [b] are both critical *)

type t = {
  violation : violation option;  (** the first; the scan stops there *)
  phases : phase array;  (** at the violation, or at the end *)
  failure : (exn * Printexc.raw_backtrace) option;
      (** what the first step that did not replay raised (usually
          {!System.Step_mismatch}); the replay stops there *)
  sections : int array;  (** [rem] steps per in-range process *)
  order : int list;  (** processes in order of their first [enter] *)
  costs : int array;  (** per-process SC cost of the replayed steps *)
  steps_rev : Step.t list array;
      (** each in-range process's steps, latest first, with
          [~projections:true]; [[||]] otherwise *)
  fingerprint : string;  (** with [~fingerprint:true]; [""] otherwise *)
}

val run :
  ?algo:Algorithm.t ->
  ?upto:int ->
  ?projections:bool ->
  ?fingerprint:bool ->
  n:int ->
  Step.t Lb_util.Vec.t ->
  t
(** Walk the first [upto] steps (default all) once; replay them only
    given [~algo]. A bad execution raises nothing here: a replay
    failure, [System.init]'s included, is kept in [failure]. *)

val verdict :
  t -> (unit, [ `Violation of violation | `Mismatch of string ]) result
(** The violation, which wins over a mismatch; else the mismatch as
    ["p%d expected %a but trace has %a"]. Re-raises any other failure. *)

val per_process : t -> int array
(** [costs]; re-raises the replay failure if there was one. *)

val cost : t -> int
(** The sum of {!per_process}. *)

val fingerprint : Step.t Lb_util.Vec.t -> string
(** The hex MD5 of every step's {!Step.to_string}, each followed by
    [';']. Stored in certificate records, so these bytes are stable. *)
