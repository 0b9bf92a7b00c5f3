(** The process automaton abstraction (paper §3.1).

    A process is a deterministic automaton: from its current local state it
    {e pends} exactly one action; feeding it the response of that action
    yields the next local state. The SC cost model (Definition 3.1) and
    the construction's [SC] predicate (Fig. 1) only ever need local-state
    {e equality}, which the state's {!key} decides without building a
    string. The canonical string witness [repr] is computed on demand,
    for consumers that hash-cons, print or persist states.

    Processes are closure records rather than a functor so that engines,
    registries and experiment drivers can mix algorithms freely. Use
    {!Make_spawn} to derive the closure form from a conventional
    state-transition module. *)

type key = ..
(** A process's local state as a comparable value. {!Make_spawn} keys
    each process by its own state value; {!with_repr} keys a wrapped
    process by its rewritten repr string. *)

type t = {
  id : int;  (** process index in [0 .. n-1] *)
  pending : Step.action;  (** the unique next step (determinism, §3.1) *)
  advance : Step.response -> t;  (** pure transition on the observed response *)
  key : key;  (** the local state, compared structurally by {!equal_state} *)
  repr : unit -> string;
      (** canonical encoding of the local state, formatted on each call
          (callers that need it more than once keep the string). A plain
          thunk, not [Lazy.t]: processes are shared across domains, and
          OCaml 5 raises [CamlinternalLazy.Undefined] when two domains
          force one lazy value at once. *)
}

val repr : t -> string
(** [repr p] is [p.repr ()]. *)

val equal_state : t -> t -> bool
(** [equal_state p q] holds iff the two processes are in the same local
    state: their keys are structurally equal. Because [repr] is
    injective on reachable states (see {!STATE.repr}) and a function of
    the key, this agrees with [String.equal (repr p) (repr q)] — without
    formatting either string. Only meaningful for processes of the same
    algorithm. *)

val with_repr : t -> string -> t
(** [with_repr p s] is [p] with local-state witness [s]: keyed by [s],
    with [repr] returning [s]. Wrappers that extend a process's state (fault
    countdowns, mutant phases) use it so that key and repr stay in step. *)

val pp : Format.formatter -> t -> unit

(** Conventional description of an algorithm's per-process automaton. *)
module type STATE = sig
  type state

  val initial : n:int -> me:int -> state
  (** Initial local state of process [me] among [n] processes. The paper
      assumes the initial step of each process is [try] (§3.2 end); the
      algorithms in [Lb_algos] all satisfy this. *)

  val pending : n:int -> me:int -> state -> Step.action

  val advance : n:int -> me:int -> state -> Step.response -> state

  val repr : state -> string
  (** Injective on reachable states: structurally distinct reachable
      states must produce distinct strings. {!Make_spawn} keys processes
      by the state value itself, so [state] must be comparable with [(=)]
      (no closures) and carry nothing [repr] leaves out; key equality
      then coincides with repr equality. No other shape constraint — reprs are
      hash-consed (never concatenated) by every consumer that compares
      or packs states, so delimiter characters such as [';'] or ['|']
      are safe to use. *)
end

module Make_spawn (S : STATE) : sig
  val spawn : n:int -> me:int -> t
end
