module Vec = Lb_util.Vec

type phase = Remainder | Trying | Critical | Exit_section

let phase_name = function
  | Remainder -> "remainder"
  | Trying -> "trying"
  | Critical -> "critical"
  | Exit_section -> "exit"

type violation =
  | Not_well_formed of { who : int; at : int; detail : string }
  | Mutex_violated of { a : int; b : int; at : int }

type t = {
  violation : violation option;
  phases : phase array;
  failure : (exn * Printexc.raw_backtrace) option;
  sections : int array;
  order : int list;
  costs : int array;
  steps_rev : Step.t list array;
  fingerprint : string;
}

(* The legal phase transitions on critical steps. *)
let advance_phase phase (c : Step.crit) =
  match phase, c with
  | Remainder, Step.Try -> Ok Trying
  | Trying, Step.Enter -> Ok Critical
  | Critical, Step.Exit -> Ok Exit_section
  | Exit_section, Step.Rem -> Ok Remainder
  | _, c ->
    Error
      (Printf.sprintf "%s step while in %s section" (Step.crit_name c)
         (phase_name phase))

(* Digits go straight into the buffer: the text is built once per
   certified pi, and string_of_int's strings cost more than its MD5. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i else Buffer.add_string buf (string_of_int i)

(* Appends exactly the bytes of [Step.to_string s] and a [';']. Only the
   rare rmw step still formats. *)
let add_step buf (s : Step.t) =
  Buffer.add_char buf 'p';
  add_int buf s.Step.who;
  Buffer.add_char buf ':';
  (match s.Step.action with
  | Step.Read r ->
    Buffer.add_string buf "read(r";
    add_int buf r;
    Buffer.add_char buf ')'
  | Step.Write (r, v) ->
    Buffer.add_string buf "write(r";
    add_int buf r;
    Buffer.add_char buf ',';
    add_int buf v;
    Buffer.add_char buf ')'
  | Step.Rmw _ as a -> Buffer.add_string buf (Format.asprintf "%a" Step.pp_action a)
  | Step.Crit c -> Buffer.add_string buf (Step.crit_name c));
  Buffer.add_char buf ';'

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint alpha =
  let buf = Buffer.create (16 * Vec.length alpha) in
  Vec.iter (add_step buf) alpha;
  digest buf

let run ?algo ?upto ?(projections = false) ?(fingerprint = false) ~n alpha =
  let len = Option.value upto ~default:(Vec.length alpha) in
  let failure = ref None in
  let fail e = failure := Some (e, Printexc.get_raw_backtrace ()) in
  let sys =
    ref
      (match algo with
      | None -> None
      | Some algo -> ( try Some (System.init algo ~n) with e -> fail e; None))
  in
  let phases = Array.make n Remainder in
  let violation = ref None and in_cs = ref (-1) in
  let sections = Array.make n 0 and entered = Array.make n false in
  let order = ref [] and costs = Array.make n 0 in
  let steps_rev = Array.make (if projections then n else 0) [] in
  let buf = if fingerprint then Some (Buffer.create (16 * len)) else None in
  let flag v = violation := Some v in
  for j = 0 to len - 1 do
    let (s : Step.t) = Vec.get alpha j in
    let who = s.Step.who in
    let in_range = who >= 0 && who < n in
    (* the phase scan stops at the first violation; the replay goes on *)
    (match !violation, s.Step.action with
    | Some _, _ -> ()
    | None, _ when not in_range ->
      flag (Not_well_formed { who; at = j; detail = "process index out of range" })
    | None, (Step.Read _ | Step.Write _ | Step.Rmw _) -> ()
    | None, Step.Crit c -> (
      match advance_phase phases.(who) c with
      | Error detail -> flag (Not_well_formed { who; at = j; detail })
      | Ok next -> (
        phases.(who) <- next;
        match next with
        | Critical when !in_cs >= 0 && !in_cs <> who ->
          flag (Mutex_violated { a = !in_cs; b = who; at = j })
        | Critical -> in_cs := who
        | Exit_section when !in_cs = who -> in_cs := -1
        | Remainder | Trying | Exit_section -> ())));
    (match s.Step.action with
    | Step.Crit Step.Rem when in_range -> sections.(who) <- sections.(who) + 1
    | Step.Crit Step.Enter ->
      if not (if in_range then entered.(who) else List.mem who !order) then begin
        if in_range then entered.(who) <- true;
        order := who :: !order
      end
    | Step.Crit _ | Step.Read _ | Step.Write _ | Step.Rmw _ -> ());
    (* the replay stops at the first step that does not apply *)
    (match !sys with
    | None -> ()
    | Some sy -> (
      match System.apply sy s with
      | o ->
        if o.System.state_changed && Step.is_shared_access s.Step.action then
          costs.(who) <- costs.(who) + 1
      | exception e ->
        fail e;
        sys := None));
    if projections && in_range then steps_rev.(who) <- s :: steps_rev.(who);
    match buf with Some b -> add_step b s | None -> ()
  done;
  {
    violation = !violation;
    phases;
    failure = !failure;
    sections;
    order = List.rev !order;
    costs;
    steps_rev;
    fingerprint = (match buf with Some b -> digest b | None -> "");
  }

let reraise r =
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) r.failure

let verdict r =
  match r.violation, r.failure with
  | Some v, _ -> Error (`Violation v)
  | None, Some (System.Step_mismatch { who; expected; actual }, _) ->
    Error
      (`Mismatch
        (Format.asprintf "p%d expected %a but trace has %a" who Step.pp_action
           expected Step.pp_action actual))
  | None, (Some _ | None) ->
    reraise r;
    Ok ()

let per_process r =
  reraise r;
  r.costs

let cost r = Array.fold_left ( + ) 0 (per_process r)
