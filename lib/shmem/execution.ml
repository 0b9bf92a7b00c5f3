module Vec = Lb_util.Vec

type t = Step.t Vec.t

let create () = Vec.create ()
let of_steps l = Vec.of_list l
let length = Vec.length
let append = Vec.push
let get = Vec.get
let steps = Vec.to_list
let copy = Vec.copy

let equal a b =
  Vec.length a = Vec.length b
  &&
  let rec go i = i >= Vec.length a || (Step.equal (Vec.get a i) (Vec.get b i) && go (i + 1)) in
  go 0

let projection t i =
  let rec go j acc =
    if j < 0 then acc
    else
      let (s : Step.t) = Vec.get t j in
      go (j - 1) (if s.Step.who = i then s :: acc else acc)
  in
  go (Vec.length t - 1) []

let replay_prefix algo ~n t ~len =
  let sys = System.init algo ~n in
  for i = 0 to len - 1 do
    ignore (System.apply sys (Vec.get t i))
  done;
  sys

let replay algo ~n t = replay_prefix algo ~n t ~len:(Vec.length t)

let replay_onto sys t ~from =
  for i = from to Vec.length t - 1 do
    ignore (System.apply sys (Vec.get t i))
  done

let fold_outcomes algo ~n t ~init ~f =
  let sys = System.init algo ~n in
  let acc = ref init in
  Vec.iter
    (fun step ->
      let outcome = System.apply sys step in
      acc := f !acc sys step outcome)
    t;
  !acc

let crit_order t =
  let n = Vec.fold_left (fun acc (s : Step.t) -> max acc (s.Step.who + 1)) 0 t in
  (Replay.run ~n t).Replay.order

let fingerprint = Replay.fingerprint

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>[";
  Vec.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Step.pp ppf s)
    t;
  Format.fprintf ppf "]@]"

let pp_with_names specs ppf t =
  Format.fprintf ppf "@[<v>";
  Vec.iteri
    (fun i (s : Step.t) ->
      let describe ppf () =
        match s.Step.action with
        | Step.Read r -> Format.fprintf ppf "read %s" (Register.name specs r)
        | Step.Write (r, v) ->
          Format.fprintf ppf "write %s := %d" (Register.name specs r) v
        | Step.Rmw (r, _) -> Format.fprintf ppf "rmw %s" (Register.name specs r)
        | Step.Crit c -> Format.fprintf ppf "%s" (Step.crit_name c)
      in
      Format.fprintf ppf "%4d  p%-3d %a@," i s.Step.who describe ())
    t;
  Format.fprintf ppf "@]"
