open Lb_shmem

type result = {
  pi : Permutation.t;
  construction : Construct.t;
  encoding : Encode.t;
  canonical : Execution.t;
  decoded : Execution.t;
  cost : int;
  bits : int;
}

(* The construction of §5 only knows how to serialize reads and writes
   (Construct would raise [Unsupported_primitive] deep inside the sweep);
   refuse RMW algorithms up front, with the lint rule that names the
   contract. *)
let require_registers_only ~what (algo : Algorithm.t) =
  if not (Algorithm.registers_only algo) then
    invalid_arg
      (Printf.sprintf
         "%s: algorithm %S is declared Uses_rmw; the lower-bound pipeline \
          covers only the paper's read/write-register model \
          (kind-honesty/undeclared-rmw is the matching `mutexlb lint` rule)"
         what algo.Algorithm.name)

(* Everything of [run] after the construction, and the canonical
   execution's replay, which gives the cost here and the canonical
   checks in [check_staged]. *)
let complete algo ~n pi construction =
  let encoding = Encode.encode construction in
  let canonical = Linearize.execution construction in
  let decoded = Decode.run_bits algo ~n encoding.Encode.bits in
  let canon = Replay.run ~algo ~projections:true ~n canonical in
  ( {
      pi;
      construction;
      encoding;
      canonical;
      decoded;
      cost = Replay.cost canon;
      bits = Encode.length_bits encoding;
    },
    canon )

let run algo ~n pi =
  require_registers_only ~what:"Pipeline.run" algo;
  fst (complete algo ~n pi (Construct.run algo ~n pi))

exception
  Check_failed of {
    algo : string;
    n : int;
    pi : Permutation.t;
    stage : string;
    message : string;
  }

let () =
  Printexc.register_printer (function
    | Check_failed { algo; n; pi; stage; message } ->
      Some
        (Printf.sprintf "pipeline check failed (%s, n=%d, pi=%s) at %s: %s"
           algo n (Permutation.to_string pi) stage message)
    | _ -> None)

let ( let* ) = Result.bind

(* Internal checks report [(stage, message)]: the stage names which link
   of the construct → encode → decode chain broke, and survives into
   {!Check_failed} so sweep quarantines and CLI output can say more than
   "check failed". *)
let check_execution ~stage pi (replayed : Replay.t) =
  let fail fmt = Printf.ksprintf (fun m -> Error (stage, m)) fmt in
  let* () =
    match Replay.verdict replayed with
    | Ok () -> Ok ()
    | Error (`Violation v) -> fail "%s" (Lb_mutex.Checker.violation_to_string v)
    | Error (`Mismatch m) -> fail "replay: %s" m
  in
  let* () =
    if Array.for_all (fun c -> c = 1) replayed.Replay.sections then Ok ()
    else fail "not every process completed once"
  in
  let order = replayed.Replay.order in
  if order = Array.to_list (Permutation.to_array pi) then Ok ()
  else
    fail "CS order %s differs from pi %s"
      (String.concat "," (List.map string_of_int order))
      (Permutation.to_string pi)

(* Two replays in all: [canon], the canonical execution's (from
   [complete], or made here), and the decoded execution's, which also
   gives the fingerprint returned on success. *)
let check_staged algo ~n ?canon r =
  let canon =
    match canon with
    | Some c -> c
    | None -> Replay.run ~algo ~projections:true ~n r.canonical
  in
  let dec = Replay.run ~algo ~projections:true ~fingerprint:true ~n r.decoded in
  let* () = check_execution ~stage:"canonical" r.pi canon in
  let* () = check_execution ~stage:"decoded" r.pi dec in
  let* () =
    let rec go i =
      if i >= n then Ok ()
      else if List.equal Step.equal dec.Replay.steps_rev.(i) canon.Replay.steps_rev.(i)
      then go (i + 1)
      else Error ("projection", Printf.sprintf "projection of p%d differs" i)
    in
    go 0
  in
  let* () =
    let dc = Replay.cost dec in
    if dc = r.cost then Ok ()
    else
      Error
        ( "cost",
          Printf.sprintf "decoded cost %d <> canonical cost %d" dc r.cost )
  in
  let* () =
    if r.bits > 0 then Ok () else Error ("encoding", "empty encoding")
  in
  let reparsed = Encode.parse ~n r.encoding.Encode.bits in
  if reparsed = r.encoding.Encode.cells then Ok dec.Replay.fingerprint
  else Error ("roundtrip", "cells do not round-trip through the binary form")

let check algo ~n r =
  match check_staged algo ~n r with
  | Ok _ -> Ok ()
  | Error (stage, message) -> Error (stage ^ ": " ^ message)

type record = {
  r_pi : Permutation.t;
  r_cost : int;
  r_bits : int;
  r_exec_fp : string;
}

(* A completed construction, checked, and its record. *)
let checked_record algo ~n (r, canon) =
  match check_staged algo ~n ~canon r with
  | Ok fp -> (r, { r_pi = r.pi; r_cost = r.cost; r_bits = r.bits; r_exec_fp = fp })
  | Error (stage, message) ->
    raise
      (Check_failed { algo = algo.Algorithm.name; n; pi = r.pi; stage; message })

let run_record algo ~n pi =
  require_registers_only ~what:"Pipeline.run" algo;
  checked_record algo ~n (complete algo ~n pi (Construct.run algo ~n pi))

let run_checked algo ~n pi = fst (run_record algo ~n pi)

let record_of_result r =
  {
    r_pi = r.pi;
    r_cost = r.cost;
    r_bits = r.bits;
    r_exec_fp = Execution.fingerprint r.decoded;
  }

let certificate_of_records (algo : Algorithm.t) ~n ~exhaustive records =
  (* An empty family would "certify" garbage: mean_cost = 0/0 = nan,
     min_cost = max_int and lower_bound_bits = log2 0 = -inf. *)
  if records = [] then
    invalid_arg "Pipeline.certificate_of_records: empty record list";
  let costs = List.map (fun r -> r.r_cost) records in
  let bits = List.map (fun r -> r.r_bits) records in
  let fingerprints = List.map (fun r -> r.r_exec_fp) records in
  let distinct =
    List.length (List.sort_uniq compare fingerprints) = List.length fingerprints
  in
  let fmean xs =
    List.fold_left ( +. ) 0.0 (List.map float_of_int xs)
    /. float_of_int (List.length xs)
  in
  {
    Bounds.algo = algo.Algorithm.name;
    n;
    perms = List.length records;
    exhaustive;
    max_cost = List.fold_left max 0 costs;
    min_cost = List.fold_left min max_int costs;
    mean_cost = fmean costs;
    max_bits = List.fold_left max 0 bits;
    mean_bits = fmean bits;
    bits_per_cost =
      List.fold_left
        (fun acc r ->
          Float.max acc (float_of_int r.r_bits /. float_of_int (max 1 r.r_cost)))
        0.0 records;
    lower_bound_bits =
      Lb_util.Xmath.log2 (float_of_int (List.length records));
    distinct;
  }

(* Cut the family, sorted by pi, into its groups of equal [depth]-prefix
   for the shortest depth giving at least [want] groups (all of depth
   n if none does). [order] holds the indices of [pis] in sorted order. *)
let prefix_groups ~n ~want pis order =
  let m = Array.length order in
  (* lcp.(k): common prefix length of the k-1-th and k-th sorted pi *)
  let lcp =
    Array.init m (fun k ->
        if k = 0 then 0
        else begin
          let a = pis.(order.(k - 1)) and b = pis.(order.(k)) in
          let rec go d =
            if d < n && Permutation.process_at a d = Permutation.process_at b d
            then go (d + 1)
            else d
          in
          go 0
        end)
  in
  let groups d = Array.fold_left (fun g l -> if l < d then g + 1 else g) 0 lcp in
  let rec depth d = if d >= n || groups d >= want then d else depth (d + 1) in
  let d = depth 0 in
  let cuts = ref [] and start = ref 0 in
  for k = 1 to m - 1 do
    if lcp.(k) < d then begin
      cuts := Array.sub order !start (k - !start) :: !cuts;
      start := k
    end
  done;
  List.rev (Array.sub order !start (m - !start) :: !cuts)

(* The trie path: each group of pi sharing a prefix is built by one
   Construct.run_family, and each leaf runs the rest of the checked
   pipeline before the walk moves on. *)
let trie_records algo ~n ~jobs pis =
  let group idx =
    let out = ref [] in
    Construct.run_family algo ~n
      (Array.to_list (Array.map (fun i -> pis.(i)) idx))
      (fun k c ->
        let _, rc = checked_record algo ~n (complete algo ~n c.Construct.pi c) in
        out := (idx.(k), rc) :: !out);
    !out
  in
  let all = Array.init (Array.length pis) Fun.id in
  let groups =
    if jobs = 1 || Lb_util.Pool.in_worker () then [ all ]
    else begin
      let order = Array.copy all in
      Array.stable_sort (fun i j -> compare pis.(i) pis.(j)) order;
      prefix_groups ~n ~want:(4 * jobs) pis order
    end
  in
  let out = Array.make (Array.length pis) None in
  List.iter
    (List.iter (fun (i, r) -> out.(i) <- Some r))
    (Lb_util.Pool.map ~jobs group groups);
  Array.to_list (Array.map Option.get out)

let records algo ~n ~perms ?jobs () =
  require_registers_only ~what:"Pipeline.records" algo;
  let jobs = match jobs with Some j -> j | None -> Lb_util.Pool.default_jobs () in
  (* A failure anywhere re-runs the family per pi through Pool.map, so
     the exception raised (and the pi and stage it names) is the one the
     per-pi sweep raises: the walk meets failures in trie order, and a
     shared stage names the smallest pi of its group. *)
  try trie_records algo ~n ~jobs (Array.of_list perms) with
  | Lb_util.Pool.Cancelled as e -> raise e
  | _ ->
    Lb_util.Pool.map ~jobs (fun pi -> snd (run_record algo ~n pi)) perms

let certify algo ~n ~perms ?(exhaustive = false) ?jobs () =
  if perms = [] then invalid_arg "Pipeline.certify: empty permutation family";
  require_registers_only ~what:"Pipeline.certify" algo;
  certificate_of_records algo ~n ~exhaustive (records algo ~n ~perms ?jobs ())
