open Lb_shmem
module C = Lb_core.Construct
module P = Lb_core.Permutation
module E = Lb_core.Encode
module D = Lb_core.Decode
module S = Lb_core.Signature
module L = Lb_core.Linearize

let ya = Lb_algos.Yang_anderson.algorithm
let bakery = Lb_algos.Bakery.algorithm

(* ----------------------------- Signature ----------------------------- *)

let test_signature_of_metastep () =
  let a = Lb_core.Metastep.create_arena () in
  let m = Lb_core.Metastep.new_write a ~reg:0 ~win:(Step.step 0 (Step.Write (0, 1))) in
  Lb_core.Metastep.add_write_step m (Step.step 1 (Step.Write (0, 2)));
  Lb_core.Metastep.add_read_step m (Step.step 2 (Step.Read 0));
  let s = S.of_metastep m in
  Alcotest.(check int) "writes incl winner" 2 s.S.writes;
  Alcotest.(check int) "reads" 1 s.S.reads;
  Alcotest.(check int) "prereads" 0 s.S.prereads;
  Alcotest.(check string) "paper notation" "PR0R1W2" (Format.asprintf "%a" S.pp s)

let test_signature_bits_positive () =
  List.iter
    (fun (pr, r, w) ->
      let s = { S.prereads = pr; reads = r; writes = w } in
      Alcotest.(check bool) "bits > 0" true (S.encoded_bits s > 0))
    [ (0, 0, 1); (3, 5, 2); (10, 100, 7) ]

(* ------------------------------ Encode ------------------------------- *)

let encode_of algo n pi =
  let c = C.run algo ~n pi in
  (c, E.encode c)

let test_cells_shape () =
  let c, e = encode_of ya 3 (P.identity 3) in
  Alcotest.(check int) "n columns" 3 (Array.length e.E.cells);
  Array.iteri
    (fun i column ->
      Alcotest.(check int)
        (Printf.sprintf "column %d length = chain length" i)
        (Array.length (C.metasteps_of c i))
        (Array.length column))
    e.E.cells

let test_cell_types_align () =
  (* every process's first cell is the try metastep: C; last is rem: C *)
  let _, e = encode_of bakery 3 (P.reverse 3) in
  Array.iter
    (fun column ->
      Alcotest.(check string) "first cell C" "C" (E.cell_to_string column.(0));
      Alcotest.(check string) "last cell C" "C"
        (E.cell_to_string column.(Array.length column - 1)))
    e.E.cells

let test_exactly_one_wsig_per_write_metastep () =
  let c, e = encode_of bakery 4 (P.identity 4) in
  let wsig = ref 0 and wm = ref 0 in
  Array.iter
    (Array.iter (function E.Cell_wsig _ -> incr wsig | _ -> ()))
    e.E.cells;
  Lb_core.Metastep.iter c.C.arena (fun m ->
      if m.Lb_core.Metastep.kind = Lb_core.Metastep.Write_meta then incr wm);
  Alcotest.(check int) "one signature per write metastep" !wm !wsig

let test_parse_roundtrip () =
  List.iter
    (fun pi ->
      let _, e = encode_of ya 4 pi in
      let cells = E.parse ~n:4 e.E.bits in
      Alcotest.(check bool) "cells roundtrip" true (cells = e.E.cells))
    (P.all 4)

let test_parse_garbage () =
  (* tag 7 is invalid *)
  match E.parse ~n:1 [| true; true; true |] with
  | _ -> Alcotest.fail "garbage parsed"
  | exception Invalid_argument _ -> ()

let test_ascii_form () =
  let _, e = encode_of ya 2 (P.identity 2) in
  let ascii = E.to_ascii e in
  Alcotest.(check bool) "has separators" true (Astring_contains.contains ascii "#");
  Alcotest.(check int) "two column terminators" 2
    (String.fold_left (fun acc ch -> if ch = '$' then acc + 1 else acc) 0 ascii);
  Alcotest.(check bool) "has signature" true (Astring_contains.contains ascii "W,PR")

let test_stats () =
  let c, e = encode_of bakery 3 (P.identity 3) in
  let st = E.stats c e in
  Alcotest.(check int) "total bits" (E.length_bits e) st.E.total_bits;
  Alcotest.(check bool) "some crit cells" true (st.E.crit_cells = 3 * 4);
  let cell_total =
    st.E.crit_cells + st.E.sr_cells + st.E.pr_cells + st.E.r_cells
    + st.E.w_cells + st.E.wsig_cells
  in
  let expected =
    Array.fold_left (fun acc col -> acc + Array.length col) 0 e.E.cells
  in
  Alcotest.(check int) "cells partitioned" expected cell_total

let test_encoding_linear_in_cost () =
  (* Theorem 6.2: |E_pi| <= c * C(alpha_pi); measure the constant over a
     family and require it bounded (it is ~7 bits/unit in practice) *)
  let worst = ref 0.0 in
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun n ->
          List.iter
            (fun pi ->
              let c = C.run algo ~n pi in
              let e = E.encode c in
              let cost =
                Lb_cost.State_change.cost algo ~n (L.execution c)
              in
              worst := Float.max !worst (float_of_int (E.length_bits e) /. float_of_int cost))
            [ P.identity n; P.reverse n ])
        [ 2; 4; 8; 16 ])
    [ ya; bakery ];
  Alcotest.(check bool) "bits/cost bounded by 12" true (!worst < 12.0)

(* ------------------------------ Decode ------------------------------- *)

let test_decode_equals_linearization () =
  List.iter
    (fun pi ->
      let c, e = encode_of ya 4 pi in
      let decoded = D.run_bits ya ~n:4 e.E.bits in
      let canonical = L.execution c in
      (* same per-process projections (Theorem 7.4: both linearize (M,⪯)) *)
      for i = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "projection p%d" i)
          true
          (List.equal Step.equal
             (Execution.projection decoded i)
             (Execution.projection canonical i))
      done)
    (P.all 4)

let test_decode_does_not_know_pi () =
  (* decoding uses only bits: two different permutations give different
     decoded executions *)
  let _, e1 = encode_of ya 3 (P.identity 3) in
  let _, e2 = encode_of ya 3 (P.reverse 3) in
  let d1 = D.run_bits ya ~n:3 e1.E.bits in
  let d2 = D.run_bits ya ~n:3 e2.E.bits in
  Alcotest.(check bool) "different decodes" false (Execution.equal d1 d2);
  Alcotest.(check (list int)) "d1 order" [ 0; 1; 2 ] (Execution.crit_order d1);
  Alcotest.(check (list int)) "d2 order" [ 2; 1; 0 ] (Execution.crit_order d2)

let test_decode_injective_s4 () =
  let decodes =
    List.map
      (fun pi ->
        let _, e = encode_of ya 4 pi in
        Execution.fingerprint (D.run_bits ya ~n:4 e.E.bits))
      (P.all 4)
  in
  Alcotest.(check int) "24 distinct decodes" 24
    (List.length (List.sort_uniq compare decodes))

let test_decode_valid_execution () =
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun pi ->
          let _, e = encode_of algo 3 pi in
          let d = D.run_bits algo ~n:3 e.E.bits in
          ignore (Execution.replay algo ~n:3 d);
          match Lb_mutex.Checker.check ~n:3 d with
          | Ok () -> ()
          | Error v -> Alcotest.fail (Lb_mutex.Checker.violation_to_string v))
        (P.all 3))
    [ ya; bakery; Lb_algos.Filter.algorithm ]

let test_decode_rejects_truncated () =
  let _, e = encode_of ya 2 (P.identity 2) in
  let truncated = Array.sub e.E.bits 0 (Array.length e.E.bits - 4) in
  match D.run_bits ya ~n:2 truncated with
  | _ -> Alcotest.fail "truncated input decoded"
  | exception (D.Decode_error _ | Invalid_argument _ | Lb_bitio.Bit_reader.Exhausted) -> ()

let test_decode_rejects_wrong_algo () =
  (* an encoding for bakery fed to the YA decoder must fail loudly *)
  let _, e = encode_of bakery 3 (P.identity 3) in
  match D.run_bits ya ~n:3 e.E.bits with
  | _ -> Alcotest.fail "cross-algorithm decode succeeded"
  | exception (D.Decode_error _ | Invalid_argument _ | System.Step_mismatch _) -> ()

let bit_flip_robustness =
  (* corrupting any single bit of E_pi must be detected: the decoder either
     raises, or its output fails to be the original linearization *)
  QCheck.Test.make ~name:"decoder detects single-bit corruption" ~count:80
    QCheck.(pair (int_range 1 5) (int_range 0 10_000))
    (fun (n, salt) ->
      let pi = P.random (Lb_util.Rng.create salt) n in
      let c, e = encode_of ya n pi in
      let original = L.execution c in
      let bits = Array.copy e.E.bits in
      let pos = salt mod Array.length bits in
      bits.(pos) <- not bits.(pos);
      match D.run_bits ya ~n bits with
      | exception
          ( D.Decode_error _ | Invalid_argument _ | System.Step_mismatch _
          | Lb_bitio.Bit_reader.Exhausted ) ->
        true
      | decoded ->
        (* decoding "succeeded": it must not reproduce alpha_pi *)
        not
          (List.for_all
             (fun i ->
               List.equal Step.equal
                 (Execution.projection decoded i)
                 (Execution.projection original i))
             (List.init n Fun.id)))

let test_ascii_roundtrip () =
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun pi ->
          let _, e = encode_of algo 4 pi in
          let cells = E.of_ascii (E.to_ascii e) in
          Alcotest.(check bool) "ascii roundtrip" true (cells = e.E.cells);
          (* the ASCII form is decodable, not just printable *)
          let d = D.run algo ~n:4 cells in
          Alcotest.(check (list int)) "decodes to pi"
            (Array.to_list (P.to_array pi))
            (Execution.crit_order d))
        [ P.identity 4; P.reverse 4 ])
    [ ya; bakery ]

let test_ascii_rejects_garbage () =
  List.iter
    (fun s ->
      match E.of_ascii s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ "C#"; "C$"; "X#$"; "W,PR1R2#$"; "C#W,PRxRyWz#$" ]

let scan_order_invariance =
  (* the decoder's output projections are invariant under the order in
     which the main loop polls processes (the nondeterminism Lemma 7.2
     tolerates) *)
  QCheck.Test.make ~name:"decode invariant under scan order" ~count:40
    QCheck.(pair (int_range 2 6) (int_range 0 100_000))
    (fun (n, salt) ->
      let pi = P.random (Lb_util.Rng.create salt) n in
      let _, e = encode_of ya n pi in
      let reference = D.run ya ~n e.E.cells in
      let scan = P.to_array (P.random (Lb_util.Rng.create (salt + 1)) n) in
      let other = D.run ~scan_order:scan ya ~n e.E.cells in
      List.for_all
        (fun i ->
          List.equal Step.equal
            (Execution.projection reference i)
            (Execution.projection other i))
        (List.init n Fun.id))

let test_trace_events () =
  let _, e = encode_of ya 2 (P.identity 2) in
  let events = ref [] in
  ignore (D.run ~trace:(fun ev -> events := ev :: !events) ya ~n:2 e.E.cells);
  let events = List.rev !events in
  let count p = List.length (List.filter p events) in
  (* every cell is consumed exactly once *)
  let total_cells =
    Array.fold_left (fun acc col -> acc + Array.length col) 0 e.E.cells
  in
  Alcotest.(check int) "cells consumed" total_cells
    (count (function D.Cell_consumed _ -> true | _ -> false));
  (* one Fired event per write metastep (= per signature install) *)
  Alcotest.(check int) "fired = signatures"
    (count (function D.Signature_installed _ -> true | _ -> false))
    (count (function D.Fired _ -> true | _ -> false));
  (* events render *)
  List.iter
    (fun ev -> Alcotest.(check bool) "prints" true
        (String.length (Format.asprintf "%a" D.pp_event ev) > 0))
    events

(* ------------------------- decoder vs naive scan ------------------------ *)

(* The decoder before touched-register firing: after each round it scans
   every register seen so far, repeating until nothing fires. Kept
   verbatim (events and errors come from Decode itself) as the reference
   the faster decoder must reproduce step for step. *)
module Naive = struct
  open Lb_core
  open Decode
  module Iset = Set.Make (Int)

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
    trace : event -> unit;
    mutable consumed : int;
  }

  let reg_state st r =
    match Hashtbl.find_opt st.regs r with
    | Some x -> x
    | None ->
      let x =
        { sig_ = None; w_set = Iset.empty; r_set = Iset.empty;
          parked = Iset.empty; pr_count = 0 }
      in
      Hashtbl.replace st.regs r x;
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

  (* Fire the front write metastep of [r] if its signature counts are all
     matched: writes (winner last), then admitted reads (Fig. 3 lines
     38-45). *)
  let try_fire st r =
    let rs = reg_state st r in
    match rs.sig_ with
    | None -> false
    | Some { winner; s } ->
      if
        Iset.cardinal rs.r_set = s.Signature.reads
        && Iset.cardinal rs.w_set = s.Signature.writes
        && rs.pr_count = s.Signature.prereads
      then begin
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
        rs.pr_count <- 0;
        true
      end
      else false

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
      (* fire every register whose front metastep is complete *)
      let fired = ref true in
      while !fired do
        fired := false;
        Hashtbl.iter
          (fun r _ -> if try_fire st r then fired := true)
          st.regs;
        if !fired then progress := true
      done;
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
end

(* A decode's observable outcome: the execution and every trace event,
   or the error. *)
let decode_outcome run cells =
  let events = ref [] in
  match run (fun ev -> events := ev :: !events) cells with
  | exec -> Ok (Execution.steps exec, List.rev !events)
  | exception D.Decode_error { detail; consumed } -> Error (detail, consumed)
  | exception e -> Error (Printexc.to_string e, -1)

let check_same_decode what algo ~n cells =
  let fast = decode_outcome (fun trace -> D.run ~trace algo ~n) cells in
  let naive = decode_outcome (fun trace -> Naive.run ~trace algo ~n) cells in
  Alcotest.(check bool) what true (fast = naive)

(* Corruptions of an encoding: every single-bit flip that still parses
   (up to [limit] positions), and every column cut short by one cell. *)
let corrupted ~n ~limit (e : E.t) =
  let flips =
    List.filter_map
      (fun pos ->
        let bits = Array.copy e.E.bits in
        bits.(pos) <- not bits.(pos);
        match E.parse ~n bits with cells -> Some cells | exception _ -> None)
      (List.init (min limit (Array.length e.E.bits)) (fun k ->
           k * Array.length e.E.bits / min limit (Array.length e.E.bits)))
  in
  let cuts =
    List.filter_map
      (fun i ->
        let col = e.E.cells.(i) in
        if Array.length col = 0 then None
        else begin
          let cells = Array.copy e.E.cells in
          cells.(i) <- Array.sub col 0 (Array.length col - 1);
          Some cells
        end)
      (List.init n Fun.id)
  in
  flips @ cuts

let test_decode_matches_naive () =
  let rng = Lb_util.Rng.create 21 in
  List.iter
    (fun (algo : Algorithm.t) ->
      List.iter
        (fun n ->
          if Algorithm.supports algo n then
            List.iter
              (fun pi ->
                let _, e = encode_of algo n pi in
                let what =
                  Printf.sprintf "%s n=%d pi=%s" algo.Algorithm.name n (P.to_string pi)
                in
                check_same_decode what algo ~n e.E.cells;
                List.iter
                  (check_same_decode (what ^ " corrupted") algo ~n)
                  (corrupted ~n ~limit:24 e))
              (P.identity n :: P.reverse n :: List.init 2 (fun _ -> P.random rng n)))
        [ 2; 3; 5 ])
    Lb_algos.Registry.register_based

let suite =
  [
    QCheck_alcotest.to_alcotest bit_flip_robustness;
    QCheck_alcotest.to_alcotest scan_order_invariance;
    Alcotest.test_case "ascii roundtrip + decode" `Quick test_ascii_roundtrip;
    Alcotest.test_case "ascii rejects garbage" `Quick test_ascii_rejects_garbage;
    Alcotest.test_case "decoder trace events" `Quick test_trace_events;
    Alcotest.test_case "signature of metastep" `Quick test_signature_of_metastep;
    Alcotest.test_case "signature bits" `Quick test_signature_bits_positive;
    Alcotest.test_case "cells shape" `Quick test_cells_shape;
    Alcotest.test_case "cell types align" `Quick test_cell_types_align;
    Alcotest.test_case "one wsig per write metastep" `Quick test_exactly_one_wsig_per_write_metastep;
    Alcotest.test_case "parse roundtrip (all S4)" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse garbage" `Quick test_parse_garbage;
    Alcotest.test_case "ascii form" `Quick test_ascii_form;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "encoding linear in cost" `Quick test_encoding_linear_in_cost;
    Alcotest.test_case "decode = linearization (all S4)" `Quick test_decode_equals_linearization;
    Alcotest.test_case "decode independent of pi" `Quick test_decode_does_not_know_pi;
    Alcotest.test_case "decode injective on S4" `Quick test_decode_injective_s4;
    Alcotest.test_case "decode is valid execution" `Quick test_decode_valid_execution;
    Alcotest.test_case "decode rejects truncated" `Quick test_decode_rejects_truncated;
    Alcotest.test_case "decode rejects wrong algorithm" `Quick test_decode_rejects_wrong_algo;
    Alcotest.test_case "decode = naive scan (zoo, corrupted)" `Quick
      test_decode_matches_naive;
  ]
