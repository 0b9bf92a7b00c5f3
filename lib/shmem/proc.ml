type key = ..

type t = {
  id : int;
  pending : Step.action;
  advance : Step.response -> t;
  key : key;
  repr : unit -> string;
}

type key += Repr of string

let repr p = p.repr ()
let equal_state p q = p == q || p.key = q.key
let with_repr p s = { p with key = Repr s; repr = (fun () -> s) }

let pp ppf p =
  Format.fprintf ppf "p%d[%a|%s]" p.id Step.pp_action p.pending (repr p)

module type STATE = sig
  type state

  val initial : n:int -> me:int -> state
  val pending : n:int -> me:int -> state -> Step.action
  val advance : n:int -> me:int -> state -> Step.response -> state
  val repr : state -> string
end

module Make_spawn (S : STATE) = struct
  type key += State of S.state

  let rec wrap ~n ~me st =
    {
      id = me;
      pending = S.pending ~n ~me st;
      advance = (fun resp -> wrap ~n ~me (S.advance ~n ~me st resp));
      key = State st;
      repr = (fun () -> S.repr st);
    }

  let spawn ~n ~me =
    if me < 0 || me >= n then invalid_arg "spawn: process index out of range";
    wrap ~n ~me (S.initial ~n ~me)
end
