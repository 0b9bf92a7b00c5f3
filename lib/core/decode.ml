open Lb_shmem
module Iset = Set.Make (Int)

exception Decode_error of { detail : string; consumed : int }

type event =
  | Cell_consumed of { who : int; pc : int; cell : Encode.cell }
  | Executed_immediately of { who : int; step : Step.t }
  | Waiting of { who : int; reg : Step.reg }
  | Parked of { who : int; reg : Step.reg }
  | Admitted of { who : int; reg : Step.reg }
  | Signature_installed of { reg : Step.reg; winner : int; s : Signature.t }
  | Fired of { reg : Step.reg; winner : int; steps : int }

let pp_event ppf = function
  | Cell_consumed { who; pc; cell } ->
    Format.fprintf ppf "p%d reads cell %d: %s" who pc (Encode.cell_to_string cell)
  | Executed_immediately { who; step } ->
    Format.fprintf ppf "p%d executes %a immediately" who Step.pp step
  | Waiting { who; reg } -> Format.fprintf ppf "p%d waits on r%d" who reg
  | Parked { who; reg } -> Format.fprintf ppf "p%d parked on r%d" who reg
  | Admitted { who; reg } ->
    Format.fprintf ppf "p%d admitted as reader of r%d" who reg
  | Signature_installed { reg; winner; s } ->
    Format.fprintf ppf "signature %a installed on r%d (winner p%d)"
      Signature.pp s reg winner
  | Fired { reg; winner; steps } ->
    Format.fprintf ppf "metastep on r%d fired (winner p%d, %d steps)" reg
      winner steps

type sig_info = {
  winner : int;
  s : Signature.t;
}

type reg_state = {
  mutable sig_ : sig_info option;
  mutable w_set : Iset.t;  (** waiting writers (including the winner) *)
  mutable r_set : Iset.t;  (** admitted readers *)
  mutable parked : Iset.t;  (** readers awaiting a signature / admission *)
  mutable pr_count : int;  (** executed prereads since the last firing *)
  mutable dirty : bool;  (** touched in the current round *)
}

type st = {
  algo : Algorithm.t;
  n : int;
  cells : Encode.cell array array;
  sys : System.t;
  exec : Execution.t;
  pc : int array;  (** next cell index per process *)
  waiting : bool array;
  done_ : bool array;
  regs : (Step.reg, reg_state) Hashtbl.t;
  mutable touched : (Step.reg * reg_state) list;
      (** the registers touched in the current round, each once *)
  trace : event -> unit;
  mutable consumed : int;
}

(* Only a touched register can become ready to fire: its counts and
   signature change only through this lookup. *)
let reg_state st r =
  let x =
    match Hashtbl.find_opt st.regs r with
    | Some x -> x
    | None ->
      let x =
        { sig_ = None; w_set = Iset.empty; r_set = Iset.empty;
          parked = Iset.empty; pr_count = 0; dirty = false }
      in
      Hashtbl.replace st.regs r x;
      x
  in
  if not x.dirty then begin
    x.dirty <- true;
    st.touched <- (r, x) :: st.touched
  end;
  x

let fail st detail = raise (Decode_error { detail; consumed = st.consumed })

let exec_step ?(notify = false) st i =
  let action = System.pending_of st.sys i in
  let step = Step.step i action in
  ignore (System.apply st.sys step);
  Execution.append st.exec step;
  if notify then st.trace (Executed_immediately { who = i; step })

let pending_read_reg st i =
  match System.pending_of st.sys i with
  | Step.Read r -> r
  | a ->
    fail st
      (Format.asprintf "p%d: cell expects a read but pending is %a" i
         Step.pp_action a)

let pending_write st i =
  match System.pending_of st.sys i with
  | Step.Write (r, v) -> (r, v)
  | a ->
    fail st
      (Format.asprintf "p%d: cell expects a write but pending is %a" i
         Step.pp_action a)

(* Would process [i] (pending a read on the signature's register) change
   state upon reading the value the winner is about to write? This is
   Fig. 3 line 21, with the winner's pending step as [e_{sig.v}]. *)
let admits st info i =
  let _, v = pending_write st info.winner in
  System.peek_after_read st.sys i v

(* A signature was just installed on [r]: re-examine parked readers. *)
let review_parked st r =
  let rs = reg_state st r in
  match rs.sig_ with
  | None -> ()
  | Some info ->
    Iset.iter
      (fun i ->
        if admits st info i then begin
          rs.parked <- Iset.remove i rs.parked;
          rs.r_set <- Iset.add i rs.r_set;
          st.trace (Admitted { who = i; reg = r })
        end)
      rs.parked

let consume_cell st i =
  let column = st.cells.(i) in
  if st.pc.(i) >= Array.length column then begin
    st.done_.(i) <- true;
    true
  end
  else begin
    let cell = column.(st.pc.(i)) in
    st.pc.(i) <- st.pc.(i) + 1;
    st.consumed <- st.consumed + 1;
    st.trace (Cell_consumed { who = i; pc = st.pc.(i); cell });
    (match cell with
    | Encode.Cell_c -> (
      match System.pending_of st.sys i with
      | Step.Crit _ -> exec_step ~notify:true st i
      | a ->
        fail st
          (Format.asprintf "p%d: C cell but pending is %a" i Step.pp_action a))
    | Encode.Cell_sr ->
      let _r = pending_read_reg st i in
      exec_step ~notify:true st i
    | Encode.Cell_pr ->
      let r = pending_read_reg st i in
      let rs = reg_state st r in
      rs.pr_count <- rs.pr_count + 1;
      exec_step ~notify:true st i
    | Encode.Cell_w ->
      let r, _ = pending_write st i in
      let rs = reg_state st r in
      rs.w_set <- Iset.add i rs.w_set;
      st.waiting.(i) <- true;
      st.trace (Waiting { who = i; reg = r })
    | Encode.Cell_wsig s ->
      let r, _ = pending_write st i in
      let rs = reg_state st r in
      (match rs.sig_ with
      | Some _ -> fail st (Printf.sprintf "duplicate signature on r%d" r)
      | None -> rs.sig_ <- Some { winner = i; s });
      rs.w_set <- Iset.add i rs.w_set;
      st.waiting.(i) <- true;
      st.trace (Signature_installed { reg = r; winner = i; s });
      review_parked st r
    | Encode.Cell_r ->
      let r = pending_read_reg st i in
      let rs = reg_state st r in
      st.waiting.(i) <- true;
      (match rs.sig_ with
      | Some info when admits st info i ->
        rs.r_set <- Iset.add i rs.r_set;
        st.trace (Admitted { who = i; reg = r })
      | Some _ | None ->
        rs.parked <- Iset.add i rs.parked;
        st.trace (Parked { who = i; reg = r })));
    true
  end

(* The front write metastep of a register is complete when its
   signature counts are all matched. *)
let ready rs =
  match rs.sig_ with
  | None -> false
  | Some { s; _ } ->
    Iset.cardinal rs.r_set = s.Signature.reads
    && Iset.cardinal rs.w_set = s.Signature.writes
    && rs.pr_count = s.Signature.prereads

(* Fire a ready register: writes (winner last), then admitted reads
   (Fig. 3 lines 38-45). Changes only [rs], [waiting], [sys] and
   [exec], so it never makes another register ready or unready. *)
let fire st r rs =
  match rs.sig_ with
  | None -> ()
  | Some { winner; _ } ->
    let losers = Iset.elements (Iset.remove winner rs.w_set) in
    let steps = List.length losers + 1 + Iset.cardinal rs.r_set in
    List.iter (fun i -> exec_step st i) losers;
    exec_step st winner;
    List.iter (fun i -> exec_step st i) (Iset.elements rs.r_set);
    st.trace (Fired { reg = r; winner; steps });
    Iset.iter (fun i -> st.waiting.(i) <- false) (Iset.union rs.w_set rs.r_set);
    rs.sig_ <- None;
    rs.w_set <- Iset.empty;
    rs.r_set <- Iset.empty;
    rs.pr_count <- 0

(* Fire every register ready after this round's cells. A register not
   touched this round was not ready after the last round's firing and
   has not changed since, so only the touched ones are tested. Several
   ready registers fire in [Hashtbl.iter] order over all registers, the
   order of a full scan; firing one changes no other's readiness, so a
   single pass fires them all. *)
let fire_touched st =
  let ready_now = List.filter (fun (_, rs) -> ready rs) st.touched in
  List.iter (fun (_, rs) -> rs.dirty <- false) st.touched;
  st.touched <- [];
  match ready_now with
  | [] -> false
  | [ (r, rs) ] ->
    fire st r rs;
    true
  | _ ->
    Hashtbl.iter (fun r rs -> if ready rs then fire st r rs) st.regs;
    true

let run ?(trace = fun _ -> ()) ?scan_order algo ~n cells =
  if Array.length cells <> n then invalid_arg "Decode.run: bad cell table";
  let scan =
    match scan_order with
    | None -> Array.init n (fun i -> i)
    | Some order ->
      if Array.length order <> n then invalid_arg "Decode.run: bad scan order";
      Array.copy order
  in
  let st =
    {
      algo;
      n;
      cells;
      sys = System.init algo ~n;
      exec = Execution.create ();
      pc = Array.make n 0;
      waiting = Array.make n false;
      done_ = Array.make n false;
      regs = Hashtbl.create 64;
      touched = [];
      trace;
      consumed = 0;
    }
  in
  let all_done () =
    let rec go i = i >= n || (st.done_.(i) && go (i + 1)) in
    go 0
  in
  while not (all_done ()) do
    let progress = ref false in
    (* consume the next cell of every non-waiting process *)
    Array.iter
      (fun i ->
        if (not st.done_.(i)) && not st.waiting.(i) then
          if consume_cell st i then progress := true)
      scan;
    if fire_touched st then progress := true;
    if not !progress then
      fail st
        (Printf.sprintf "no progress (waiting=%s)"
           (String.concat ","
              (List.filteri (fun i _ -> st.waiting.(i)) (List.init n string_of_int))))
  done;
  (* sanity: nothing left over *)
  Hashtbl.iter
    (fun r rs ->
      if rs.sig_ <> None || not (Iset.is_empty rs.w_set) then
        fail st (Printf.sprintf "leftover metastep state on r%d" r);
      if not (Iset.is_empty rs.parked) then
        fail st (Printf.sprintf "parked readers left on r%d" r))
    st.regs;
  st.exec

let run_bits algo ~n bits = run algo ~n (Encode.parse ~n bits)
