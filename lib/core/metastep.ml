open Lb_shmem
module Vec = Lb_util.Vec

type id = int
type kind = Read_meta | Write_meta | Crit_meta

type t = {
  id : id;
  kind : kind;
  reg : Step.reg;
  mutable reads : Step.t list;
  mutable writes : Step.t list;
  mutable win : Step.t option;
  crit : Step.t option;
  mutable pread : id list;
  mutable pread_of : id option;
}

type arena = t Vec.t

let create_arena () : arena = Vec.create ()
let copy_arena (a : arena) : arena = Vec.map (fun m -> { m with id = m.id }) a
let count (a : arena) = Vec.length a
let get (a : arena) id = Vec.get a id
let iter (a : arena) f = Vec.iter f a

let fresh (a : arena) ~kind ~reg ~win ~crit ~reads =
  let m =
    {
      id = Vec.length a;
      kind;
      reg;
      reads;
      writes = [];
      win;
      crit;
      pread = [];
      pread_of = None;
    }
  in
  Vec.push a m;
  m

let new_write a ~reg ~win:(w : Step.t) =
  (match w.Step.action with
  | Step.Write (r, _) when r = reg -> ()
  | _ -> invalid_arg "Metastep.new_write: winning step is not a write on reg");
  fresh a ~kind:Write_meta ~reg ~win:(Some w) ~crit:None ~reads:[]

let new_read a ~reg ~read:(r : Step.t) =
  (match r.Step.action with
  | Step.Read r' when r' = reg -> ()
  | _ -> invalid_arg "Metastep.new_read: step is not a read on reg");
  fresh a ~kind:Read_meta ~reg ~win:None ~crit:None ~reads:[ r ]

let new_crit a ~crit:(c : Step.t) =
  (match c.Step.action with
  | Step.Crit _ -> ()
  | _ -> invalid_arg "Metastep.new_crit: step is not critical");
  fresh a ~kind:Crit_meta ~reg:(-1) ~win:None ~crit:(Some c) ~reads:[]

let all_steps m =
  m.writes @ (match m.win with Some w -> [ w ] | None -> [])
  @ m.reads
  @ (match m.crit with Some c -> [ c ] | None -> [])

let contains m i = List.exists (fun (s : Step.t) -> s.Step.who = i) (all_steps m)

let check_insert m (s : Step.t) ~expect_read =
  if m.kind <> Write_meta then
    invalid_arg "Metastep: can only insert into a write metastep";
  (match s.Step.action, expect_read with
  | Step.Read r, true when r = m.reg -> ()
  | Step.Write (r, _), false when r = m.reg -> ()
  | _ -> invalid_arg "Metastep: step kind or register mismatch");
  if contains m s.Step.who then
    invalid_arg
      (Printf.sprintf "Metastep %d: process %d already has a step" m.id
         s.Step.who)

let add_read_step m s =
  check_insert m s ~expect_read:true;
  m.reads <- m.reads @ [ s ]

let add_write_step m s =
  check_insert m s ~expect_read:false;
  m.writes <- m.writes @ [ s ]

let value m =
  match m.win with
  | Some { Step.action = Step.Write (_, v); _ } -> v
  | _ -> invalid_arg "Metastep.value: no winning step"

let winner m =
  match m.win with
  | Some w -> w.Step.who
  | None -> invalid_arg "Metastep.winner: no winning step"

let own m = List.map (fun (s : Step.t) -> s.Step.who) (all_steps m)

let step_of m i =
  match List.find_opt (fun (s : Step.t) -> s.Step.who = i) (all_steps m) with
  | Some s -> s
  | None -> raise Not_found

let size m = List.length (all_steps m)

let by_who steps =
  List.sort (fun (a : Step.t) (b : Step.t) -> compare a.Step.who b.Step.who) steps

let seq m =
  match m.kind with
  | Crit_meta -> ( match m.crit with Some c -> [ c ] | None -> [])
  | Read_meta -> by_who m.reads
  | Write_meta ->
    by_who m.writes
    @ (match m.win with Some w -> [ w ] | None -> [])
    @ by_who m.reads

let pp ppf m =
  let kind =
    match m.kind with
    | Read_meta -> "R"
    | Write_meta -> "W"
    | Crit_meta -> "C"
  in
  Format.fprintf ppf "m%d[%s reg=%d own={%s}%s]" m.id kind m.reg
    (String.concat "," (List.map string_of_int (own m)))
    (match m.pread with
    | [] -> ""
    | l -> " pread=" ^ String.concat "," (List.map string_of_int l))
