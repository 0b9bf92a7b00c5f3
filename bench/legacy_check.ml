(* The pre-rewrite model-checker core, kept verbatim as the baseline for
   BENCH_MODELCHECK.json: heap-allocated string keys built with a
   Buffer, a full System.t + phases + rems copy stored per node, parent
   links by key string, sequential BFS, and the bound enforced only at
   pop time. Only the bench compares against it — the library's explorer
   is Lb_mutex.Model_check. *)

open Lb_shmem

type verdict =
  | Verified
  | Mutex_violation of Execution.t
  | Deadlock of Execution.t
  | Bound_exceeded of int

type report = {
  verdict : verdict;
  states : int;
  transitions : int;
  live_words : int;
  seconds : float;
}

type node = {
  sys : System.t;
  phases : Lb_mutex.Checker.phase array;
  rems : int array;
  parent : (string * Step.t) option;
}

let phase_code = function
  | Lb_mutex.Checker.Remainder -> 'r'
  | Lb_mutex.Checker.Trying -> 't'
  | Lb_mutex.Checker.Critical -> 'c'
  | Lb_mutex.Checker.Exit_section -> 'x'

let key_of sys phases rems =
  let buf = Buffer.create 64 in
  Array.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ',')
    sys.System.regs;
  Buffer.add_char buf '|';
  Array.iter
    (fun (p : Proc.t) ->
      Buffer.add_string buf (Proc.repr p);
      Buffer.add_char buf ';')
    sys.System.procs;
  Buffer.add_char buf '|';
  Array.iteri
    (fun i ph ->
      Buffer.add_char buf (phase_code ph);
      Buffer.add_string buf (string_of_int rems.(i)))
    phases;
  Buffer.contents buf

let trace_to nodes key =
  let steps = ref [] in
  let rec go key =
    match (Hashtbl.find nodes key).parent with
    | None -> ()
    | Some (pkey, step) ->
      steps := step :: !steps;
      go pkey
  in
  go key;
  Execution.of_steps !steps

let advance_phase phases who (c : Step.crit) =
  let next =
    match phases.(who), c with
    | Lb_mutex.Checker.Remainder, Step.Try -> Lb_mutex.Checker.Trying
    | Lb_mutex.Checker.Trying, Step.Enter -> Lb_mutex.Checker.Critical
    | Lb_mutex.Checker.Critical, Step.Exit -> Lb_mutex.Checker.Exit_section
    | Lb_mutex.Checker.Exit_section, Step.Rem -> Lb_mutex.Checker.Remainder
    | ph, c ->
      invalid_arg
        (Printf.sprintf "legacy_check: p%d ill-formed %s in %s" who
           (Step.crit_name c) (Lb_mutex.Checker.phase_name ph))
  in
  let out = Array.copy phases in
  out.(who) <- next;
  out

let explore ?(rounds = 1) ?(max_states = 200_000) algo ~n =
  let live0 = (Gc.stat ()).Gc.live_words in
  let t0 = Unix.gettimeofday () in
  let nodes : (string, node) Hashtbl.t = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let transitions = ref 0 in
  let init_sys = System.init algo ~n in
  let init_phases = Array.make n Lb_mutex.Checker.Remainder in
  let init_rems = Array.make n 0 in
  let init_key = key_of init_sys init_phases init_rems in
  Hashtbl.replace nodes init_key
    { sys = init_sys; phases = init_phases; rems = init_rems; parent = None };
  Queue.push init_key queue;
  let verdict = ref None in
  while !verdict = None && not (Queue.is_empty queue) do
    if Hashtbl.length nodes > max_states then
      verdict := Some (Bound_exceeded (Hashtbl.length nodes))
    else begin
      let key = Queue.pop queue in
      let node = Hashtbl.find nodes key in
      let unfinished = ref [] in
      for i = n - 1 downto 0 do
        if node.rems.(i) < rounds then unfinished := i :: !unfinished
      done;
      if
        !unfinished <> []
        && List.for_all
             (fun i -> not (System.would_change_state node.sys i))
             !unfinished
      then verdict := Some (Deadlock (trace_to nodes key))
      else
        List.iter
          (fun i ->
            if !verdict = None then begin
              let sys' = System.copy node.sys in
              let action = System.pending_of sys' i in
              let step = Step.step i action in
              ignore (System.apply sys' step);
              incr transitions;
              let phases', rems' =
                match action with
                | Step.Crit c ->
                  let ph = advance_phase node.phases i c in
                  let rm =
                    if c = Step.Rem then begin
                      let r = Array.copy node.rems in
                      r.(i) <- r.(i) + 1;
                      r
                    end
                    else node.rems
                  in
                  (ph, rm)
                | Step.Read _ | Step.Write _ | Step.Rmw _ ->
                  (node.phases, node.rems)
              in
              let key' = key_of sys' phases' rems' in
              if not (Hashtbl.mem nodes key') then begin
                Hashtbl.replace nodes key'
                  { sys = sys'; phases = phases'; rems = rems';
                    parent = Some (key, step) };
                let critical =
                  Array.to_list phases'
                  |> List.filteri (fun _ ph -> ph = Lb_mutex.Checker.Critical)
                in
                if List.length critical >= 2 then
                  verdict := Some (Mutex_violation (trace_to nodes key'))
                else Queue.push key' queue
              end
            end)
          !unfinished
    end
  done;
  let verdict = match !verdict with None -> Verified | Some v -> v in
  let seconds = Unix.gettimeofday () -. t0 in
  let live_words = max 0 ((Gc.stat ()).Gc.live_words - live0) in
  (* sample live words before reading the counts, while the node table is
     still reachable — same measurement discipline as the packed core *)
  let states = Hashtbl.length nodes in
  ignore (Sys.opaque_identity nodes);
  { verdict; states; transitions = !transitions; live_words; seconds }
