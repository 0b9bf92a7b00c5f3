(* The repository benchmark. `python3 perfbench/run.py` builds this
   executable and the CLI, then calls

     bench.exe run --workload W --seed S --seconds T --trace 0|1 ...

   With --trace 0 it drives the mutexlb CLI verbs and the serve HTTP
   API as a user would and prints the end-to-end metrics; with
   --trace 1 it drives the same generated inputs in process, with spans
   around each call into a library layer, and prints the per-layer
   metrics. Either way every output is checked against the goldens in
   goldens/, and the last line of stdout is one JSON object. See
   README.md in this directory. *)

open Printf
module P = Plan
module Json = Lb_util.Json

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  nproc : int;
  jobs : int;
  workers : int;
  clients : int;
  exe : string;
  goldens : string;
  work : string;
  commit : string;
  pinned : string;  (** the CPU run.py pinned the run to, or "none" *)
}

let now = Unix.gettimeofday

(* ---- operation accounting and the correctness gate ---- *)

let attempted = Atomic.make 0
let failed = Atomic.make 0
let gate_mu = Mutex.create ()

let operation ok what =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Mutex.protect gate_mu (fun () -> eprintf "perfbench: FAILED %s\n%!" what)
  end

let golden_cert ctx f =
  let path = Filename.concat ctx.goldens ("cert/" ^ P.name f ^ ".txt") in
  match Proc.read_file path with
  | s -> s
  | exception Sys_error _ -> "(no golden " ^ path ^ ")"

(* The certificate [text] (as the CLI prints it, trailing newline
   included) must equal the golden byte for byte; independently of the
   golden, decodes must be distinct and max_bits >= log2(#pi). *)
let cert_ok ctx f text =
  let lines = String.split_on_char '\n' text in
  let find prefix =
    List.find_opt (String.starts_with ~prefix) lines
    |> Option.map (fun l ->
           String.sub l (String.length prefix) (String.length l - String.length prefix))
  in
  let independent =
    match (lines, find "bits: max=", find "distinct decodes: ") with
    | first :: _, Some bits, Some distinct -> (
      try
        let perms = Scanf.sscanf first "%_s n=%_d (%d perms" Fun.id in
        let max_bits = Scanf.sscanf bits "%d" Fun.id in
        distinct = "true"
        && perms = List.length (P.pis f)
        && float_of_int max_bits >= Float.log2 (float_of_int perms)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> false)
    | _ -> false
  in
  independent && text = golden_cert ctx f

(* The certificate part of `certify --store` output: everything before
   the store summary lines. *)
let cert_part out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"store " l
           || String.starts_with ~prefix:"manifest " l))
  |> String.concat "\n"

type check_golden = { g_states : int; g_transitions : int }

let check_goldens ctx =
  let path = Filename.concat ctx.goldens "check.txt" in
  match Proc.read_file path with
  | exception Sys_error _ -> []
  | s ->
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ name; "verified"; st; tr ] ->
          Some (name, { g_states = int_of_string st; g_transitions = int_of_string tr })
        | _ -> None)
      (String.split_on_char '\n' s)

(* ---- metrics ---- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value = { m_name; m_value; m_unit; m_note = note }

(* Per-layer metrics of the traced run, with units; a layer idle in a
   workload reports 0. Keep in step with BENCHMARK.json. *)
let per_layer_units =
  [
    ("construct.ms_per_pi", "ms"); ("encode.ms_per_pi", "ms");
    ("decode.ms_per_pi", "ms"); ("verify.ms_per_pi", "ms");
    ("fingerprint.ms_per_pi", "ms"); ("construct.first_stage_ms", "ms");
    ("construct.last_stage_ms", "ms"); ("pipeline.metasteps_per_pi", "count");
    ("pipeline.bits_per_pi", "bits"); ("family.prefix_share", "fraction");
    ("store.put_ms", "ms"); ("store.lookup_hit_ms", "ms");
    ("store.lookup_miss_ms", "ms"); ("store.bytes_per_entry", "bytes");
    ("manifest.save_ms", "ms"); ("store.hit_frac", "fraction");
    ("claim.acquire_ms", "ms"); ("claim.refresh_ms", "ms");
    ("claim.release_ms", "ms"); ("claim.snapshot_ms", "ms");
    ("claim.contended_frac", "fraction");
    ("workers.compute_efficiency", "fraction"); ("workers.stolen", "count");
    ("check.expand_s", "s"); ("check.merge_s", "s"); ("check.spill_s", "s");
    ("check.layers", "count"); ("check.bytes_per_state", "bytes");
    ("serve.queue_ms", "ms"); ("serve.run_ms", "ms"); ("serve.cold_ms", "ms");
    ("serve.warm_ms", "ms"); ("serve.refused", "count");
    ("serve.stats_ms", "ms"); ("serve.warm_frac", "fraction");
    ("pool.busy_frac", "fraction");
    ("layer.lb_core.self_s", "s"); ("layer.lb_store.self_s", "s");
    ("layer.lb_store_claim.self_s", "s"); ("layer.lb_mutex.self_s", "s");
    ("layer.lb_serve.self_s", "s");
    ("trace.coverage", "fraction"); ("trace.overhead", "fraction");
  ]

let layers = [ "lb_core"; "lb_store"; "lb_store_claim"; "lb_mutex"; "lb_serve" ]

(* Median duration (ms) of the spans called [name], 0 when none ran. *)
let span_median name =
  match Trace.durations_ms name with [] -> 0. | ds -> Stats.median ds

let span_per name ~per =
  if per <= 0. then 0. else Stats.sum (Trace.durations_ms name) /. per

(* ---- shared helpers ---- *)

let algo_of name = Lb_algos.Registry.find_exn name

(* Set up three times; report the median and keep the last result.
   [teardown] undoes every set-up but the last. *)
let timed_setups ?(teardown = ignore) setup =
  let times = ref [] and last = ref None in
  for i = 1 to 3 do
    let t0 = now () in
    let r = setup () in
    times := (now () -. t0) :: !times;
    if i < 3 then teardown r else last := Some r
  done;
  (Stats.median !times, Option.get !last)

(* Run [round r] for r = 0, 1, ... until [seconds] have passed (always
   at least once, never more than [max_rounds]). *)
let run_rounds ctx ?(max_rounds = max_int) round =
  let t0 = now () in
  let rec go r =
    if r < max_rounds && (r = 0 || now () -. t0 < ctx.seconds) then begin
      round r;
      go (r + 1)
    end
  in
  go 0

let warmup ctx args =
  let r = Proc.run ~work:ctx.work ~tag:"warmup" ctx.exe args in
  if r.Proc.code <> 0 then
    failwith (sprintf "warm-up `mutexlb %s` exited %d" (String.concat " " args) r.code)

let certify_args (f : P.family) =
  [ "certify"; "-a"; f.algo; "-n"; string_of_int f.n; "--perms";
    string_of_int f.perms; "--seed"; string_of_int f.seed ]

(* Per-round throughput: the units of a round over the seconds its
   operations took. work_per_s is the median over rounds, which a burst
   of contention from other tenants during one round does not move;
   every round has the same mix of operations. *)
type tally = {
  mutable rates : float list;
  mutable lat : (string * float) list;  (** operation kind, seconds *)
  mutable units : float;
}

let tally () = { rates = []; lat = []; units = 0. }

(* [ops]: (kind, units, seconds) of each operation of one round. *)
let record_round t ops =
  let u = Stats.sum (List.map (fun (_, u, _) -> u) ops)
  and s = Stats.sum (List.map (fun (_, _, s) -> s) ops) in
  t.rates <- (u /. s) :: t.rates;
  t.lat <- List.map (fun (k, _, s) -> (k, s)) ops @ t.lat;
  t.units <- t.units +. u

(* The operations of a round differ in size by up to 10x, so a quantile
   over all of them jumps between sizes as the round count changes.
   Instead each operation kind gets its own quantile, and the metric is
   the geometric mean over kinds. *)
let round_metrics t ~units ~op =
  let kinds = List.sort_uniq compare (List.map fst t.lat) in
  let per_kind q =
    let logs =
      List.map
        (fun k ->
          log (Stats.quantile q (List.filter_map (fun (k', s) -> if k = k' then Some (s *. 1000.) else None) t.lat)))
        kinds
    in
    exp (Stats.sum logs /. float_of_int (List.length logs))
  in
  let samples =
    sprintf "geometric mean over %d kinds of %s, %d samples" (List.length kinds) op
      (List.length t.lat)
  in
  [
    metric "work_per_s" "1/s" (Stats.median t.rates)
      ~note:(sprintf "%s per second, median of %d rounds, %.0f in all" units
               (List.length t.rates) t.units);
    metric "op_p50_ms" "ms" (per_kind 0.5) ~note:samples;
    metric "op_p90_ms" "ms" (per_kind 0.9) ~note:samples;
  ]

let rss_metric () =
  metric "peak_rss_mb" "MiB" (float_of_int !Proc.peak_rss_kb /. 1024.)
    ~note:(sprintf "largest VmHWM among %d mutexlb processes" !Proc.reaped)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ==== certify-exhaustive ==== *)

let certify_exhaustive ctx =
  let setup_s, share =
    timed_setups (fun () ->
        let share = P.prefix_share P.exhaustive_families in
        List.iter (fun f -> ignore (golden_cert ctx f)) P.exhaustive_families;
        warmup ctx [ "certify"; "-a"; "yang_anderson"; "-n"; "5"; "--perms"; "120";
                     "--jobs"; string_of_int ctx.jobs ];
        share)
  in
  let rng = Lb_util.Rng.create ctx.seed in
  let t = tally () in
  run_rounds ctx (fun _ ->
      record_round t
        (List.map
           (fun f ->
             let r =
               Proc.run ~work:ctx.work ctx.exe
                 (certify_args f @ [ "--jobs"; string_of_int ctx.jobs ])
             in
             operation (r.code = 0 && cert_ok ctx f r.out) ("certify " ^ P.name f);
             (f.algo, float_of_int (List.length (P.pis f)), r.Proc.secs))
           (P.shuffled rng P.exhaustive_families)));
  ( (metric "setup_s" "s" setup_s ~note:"median of 3 set-ups"
     :: round_metrics t ~units:"pi_per_s: pi" ~op:"certify run")
    @ [ rss_metric () ],
    [ sprintf "family.prefix_share=%.4f" share ] )

(* ==== store-workers ==== *)

let store_workers ctx =
  let store = Filename.concat ctx.work "store" in
  let setup_s, rounds =
    timed_setups (fun () ->
        let rounds = P.store_rounds ~seed:ctx.seed in
        Proc.fresh_dir store;
        let warm = Filename.concat ctx.work "warm-store" in
        Proc.fresh_dir warm;
        warmup ctx [ "certify"; "-a"; "bakery"; "-n"; "10"; "--perms"; "16";
                     "--store"; warm; "--workers"; string_of_int ctx.workers;
                     "--jobs"; string_of_int ctx.jobs ];
        Proc.rm_rf warm;
        rounds)
  in
  let t = tally () and worker_exits = ref 0 and families = ref [] in
  let rounds_a = Array.of_list rounds in
  run_rounds ctx ~max_rounds:P.store_seeds (fun r ->
      record_round t
        (List.map
           (fun f ->
             families := f :: !families;
             let r =
               Proc.run ~work:ctx.work ctx.exe
                 (certify_args f
                 @ [ "--store"; store; "--workers"; string_of_int ctx.workers;
                     "--jobs"; string_of_int ctx.jobs ])
             in
             String.split_on_char '\n' r.err
             |> List.iter (fun l ->
                    if String.starts_with ~prefix:"certify: worker " l then incr worker_exits);
             operation
               (r.code = 0 && cert_ok ctx f (cert_part r.out))
               ("certify --store --workers " ^ P.name f);
             (sprintf "%s-n%d" f.algo f.n, float_of_int (List.length (P.pis f)), r.Proc.secs))
           rounds_a.(r)));
  let v = Proc.run ~work:ctx.work ctx.exe [ "store"; "verify"; store ] in
  operation (v.Proc.code = 0) "store verify";
  ( (metric "setup_s" "s" setup_s ~note:"median of 3 set-ups"
     :: round_metrics t ~units:"pi_per_s: pi" ~op:"certify --store --workers run")
    @ [ rss_metric () ],
    [
      sprintf "family.prefix_share=%.4f" (P.prefix_share !families);
      sprintf "worker subprocesses that exited abnormally: %d of %d" !worker_exits
        (ctx.workers * List.length !families);
    ] )

(* ==== serve-mixed ==== *)

let serve_limits ctx =
  (* above the offered load: at most [nproc] closed-loop clients, never
     more than one job each in flight *)
  [ ("--max-active", string_of_int (2 * ctx.nproc)); ("--per-client", "2");
    ("--rate", "10000"); ("--burst", "10000") ]

let live_servers = ref []

let start_server ctx ~store =
  let pf = Filename.concat ctx.work "port" in
  Proc.rm_rf pf;
  Proc.fresh_dir store;
  let args =
    [ "serve"; "--store"; store; "--port"; "0"; "--port-file"; pf; "--jobs"; "1" ]
    @ List.concat_map (fun (k, v) -> [ k; v ]) (serve_limits ctx)
  in
  let pid, _, _ = Proc.spawn ~work:ctx.work ~tag:"serve" ctx.exe args in
  live_servers := pid :: !live_servers;
  let deadline = now () +. 30. in
  let rec port () =
    match int_of_string_opt (String.trim (Proc.read_file pf)) with
    | Some p -> p
    | None | (exception Sys_error _) ->
      if now () > deadline then failwith "serve did not write its port file";
      Unix.sleepf 0.01;
      port ()
  in
  let port = port () in
  (match Lb_serve.Client.health ~port () with
  | Ok _ -> ()
  | Error e -> failwith ("serve health: " ^ e));
  (pid, port)

let stop_server pid =
  live_servers := List.filter (( <> ) pid) !live_servers;
  Unix.kill pid Sys.sigterm;
  ignore (Proc.reap pid)

(* A run that fails half-way still stops the servers it started. *)
let () = at_exit (fun () -> List.iter stop_server !live_servers)

let job_json (f : P.family) =
  Json.Obj
    [ ("kind", Json.String "certify"); ("algo", Json.String f.algo);
      ("n", Json.Int f.n); ("perms", Json.Int f.perms); ("seed", Json.Int f.seed) ]

type job = {
  j_secs : float;  (** submit to result; infinity when refused or failed *)
  j_family : string;
  j_path : string;  (** "warm" | "swept" | "" *)
  j_granted : float option;  (** seconds from submit to the granted event *)
  j_hits : int;
  j_computed : int;
  j_refused : bool;
  j_done : float;  (** completion time (Unix time) *)
}

let str_member k j = Option.bind (Json.member k j) Json.as_string
let int_member k j = Option.value ~default:0 (Option.bind (Json.member k j) Json.as_int)

(* One closed-loop client: submit, wait for the result, repeat until
   [until]. When [traced], client 0 also times GET /v1/stats every 20
   jobs. *)
let client_loop ctx ~port ~pool ~until ~traced c =
  let next = P.serve_stream ~seed:ctx.seed ~client:c pool in
  let jobs = ref [] in
  let k = ref 0 in
  while now () < until do
    let f = next () in
    let req = sprintf "c%d/%d/%s" c !k (P.name f) in
    let t0 = now () in
    let granted = ref None in
    let on_event ev =
      if str_member "event" ev = Some "granted" && !granted = None then
        granted := Some (now () -. t0)
    in
    let res =
      Trace.span ~req ~layer:"lb_serve" "serve.job" (fun () ->
          Lb_serve.Client.submit ~port ~client:(sprintf "c%d" c) (job_json f) ~on_event)
    in
    let secs = now () -. t0 in
    let job =
      match res with
      | Ok { Lb_serve.Client.o_status = 200; o_result = Some r; o_error = None; o_drained = false; _ } ->
        let text =
          Option.bind (Json.member "certificate" r) (str_member "text")
          |> Option.value ~default:""
        in
        let ok = cert_ok ctx f (text ^ "\n") in
        operation ok ("serve job " ^ req);
        { j_secs = (if ok then secs else infinity); j_family = P.name f; j_done = t0 +. secs;
          j_path = Option.value ~default:"" (str_member "path" r);
          j_granted = !granted; j_hits = int_member "hits" r;
          j_computed = int_member "computed" r; j_refused = false }
      | Ok o ->
        operation false (sprintf "serve job %s: status %d" req o.o_status);
        { j_secs = infinity; j_family = P.name f; j_done = t0 +. secs; j_path = ""; j_granted = None;
          j_hits = 0; j_computed = 0; j_refused = o.o_status = 429 || o.o_drained }
      | Error e ->
        operation false (sprintf "serve job %s: %s" req e);
        { j_secs = infinity; j_family = P.name f; j_done = t0 +. secs; j_path = ""; j_granted = None;
          j_hits = 0; j_computed = 0; j_refused = false }
    in
    jobs := job :: !jobs;
    incr k;
    if traced && c = 0 && !k mod 20 = 0 then
      ignore
        (Trace.span ~req:"stats" ~layer:"lb_serve" "serve.stats" (fun () ->
             Lb_serve.Client.stats ~port ()))
  done;
  List.rev !jobs

(* Run [clients] closed-loop clients for [secs]; returns the jobs in
   completion order and the start time. *)
let serve_loop ctx ~clients ~port ~pool ~secs ~traced =
  let t0 = now () in
  let until = t0 +. secs in
  let doms =
    List.init clients (fun c ->
        Domain.spawn (fun () -> client_loop ctx ~port ~pool ~until ~traced c))
  in
  let jobs = List.concat_map Domain.join doms in
  (List.sort (fun a b -> compare a.j_done b.j_done) jobs, t0)

(* Jobs completed per second and the p50 and p90 job latency (ms), each
   the median over the run's one-second windows of that window's
   figure: the cold jobs at the start and a stall of the host count as
   one window each, while every window of warm jobs still has more than
   ten samples beyond its p90. *)
let serve_windows jobs ~t0 ~secs =
  let windows = max 1 (int_of_float secs) in
  let by = Array.make windows [] in
  List.iter
    (fun j ->
      let w = int_of_float (j.j_done -. t0) in
      if w >= 0 && w < windows then by.(w) <- (j.j_secs *. 1000.) :: by.(w))
    jobs;
  let per f = Stats.median (List.filter_map f (Array.to_list by)) in
  ( per (fun l -> Some (float_of_int (List.length l))),
    per (function [] -> None | l -> Some (Stats.median l)),
    per (function [] -> None | l -> Some (Stats.quantile 0.9 l)),
    windows )

(* Share of jobs whose family an earlier job (of any client) already
   requested: the input's warm share. *)
let warm_frac jobs =
  let seen = Hashtbl.create 16 in
  let warm =
    List.fold_left
      (fun acc j ->
        if Hashtbl.mem seen j.j_family then acc + 1
        else (Hashtbl.add seen j.j_family (); acc))
      0 jobs
  in
  float_of_int warm /. float_of_int (max 1 (List.length jobs))

let serve_setup ctx ~store =
  timed_setups ~teardown:(fun (pid, _, _) -> stop_server pid) (fun () ->
      let pool = P.serve_pool ~seed:ctx.seed in
      List.iter (fun f -> ignore (golden_cert ctx f)) pool;
      let pid, port = start_server ctx ~store in
      (* warm-up: one cold job on a family outside the pool *)
      (match
         Lb_serve.Client.submit ~port ~client:"warmup"
           (job_json { P.algo = "yang_anderson"; n = 5; perms = 120; seed = 1 })
           ~on_event:ignore
       with
      | Ok { Lb_serve.Client.o_status = 200; o_error = None; _ } -> ()
      | _ -> failwith "serve warm-up job failed");
      (pid, port, pool))

let serve_mixed ctx =
  let store = Filename.concat ctx.work "store" in
  let setup_s, (pid, port, pool) = serve_setup ctx ~store in
  let jobs, t0 =
    serve_loop ctx ~clients:ctx.clients ~port ~pool ~secs:ctx.seconds ~traced:false
  in
  stop_server pid;
  let rate, p50, p90, windows = serve_windows jobs ~t0 ~secs:ctx.seconds in
  let n = List.length jobs in
  let win = sprintf "median of %d one-second windows, %d jobs" windows n in
  ( [
      metric "setup_s" "s" setup_s ~note:"median of 3 set-ups incl. server start";
      metric "work_per_s" "1/s" rate
        ~note:(sprintf "jobs_per_s: %s, %d clients" win ctx.clients);
      metric "op_p50_ms" "ms" p50 ~note:("job_p50_ms, submit to result: " ^ win);
      metric "op_p90_ms" "ms" p90 ~note:("job_p90_ms: " ^ win);
      rss_metric ();
    ],
    [ sprintf "serve.warm_frac=%.4f (input share of repeat jobs)" (warm_frac jobs);
      sprintf "limits: %s"
        (String.concat " " (List.map (fun (k, v) -> k ^ " " ^ v) (serve_limits ctx))) ] )

(* ==== check ==== *)

let check_args ~work ~jobs (i : P.instance) =
  [ "check"; "-a"; i.c_algo; "-n"; string_of_int i.c_n; "--json"; "--stats"; "--jobs";
    string_of_int jobs ]
  @
  match i.budget_mib with
  | None -> []
  | Some b ->
    [ "--mem-budget"; string_of_int b; "--spill-dir"; Filename.concat work "spill" ]

let check_ok goldens (i : P.instance) ~verdict ~states ~transitions =
  match List.assoc_opt (P.instance_name i) goldens with
  | Some g -> verdict = "verified" && states = g.g_states && transitions = g.g_transitions
  | None -> false

let check ctx =
  let setup_s, goldens =
    timed_setups (fun () ->
        let g = check_goldens ctx in
        Proc.fresh_dir (Filename.concat ctx.work "spill");
        warmup ctx [ "check"; "-a"; "yang_anderson"; "-n"; "3"; "--json"; "--jobs";
                     string_of_int ctx.jobs ];
        g)
  in
  let rng = Lb_util.Rng.create ctx.seed in
  let t = tally () in
  run_rounds ctx (fun _ ->
      record_round t
        (List.map
           (fun (i : P.instance) ->
             Proc.rm_rf (Filename.concat ctx.work "spill");
             let r =
               Proc.run ~work:ctx.work ctx.exe (check_args ~work:ctx.work ~jobs:ctx.jobs i)
             in
             let states, ok =
               match Json.parse (String.trim r.out) with
               | Ok j ->
                 let s = int_member "states" j in
                 ( s,
                   check_ok goldens i
                     ~verdict:(Option.value ~default:"" (str_member "verdict" j))
                     ~states:s ~transitions:(int_member "transitions" j) )
               | Error _ -> (0, false)
             in
             operation (r.code = 0 && ok) ("check " ^ P.instance_name i);
             (P.instance_name i, float_of_int states, r.Proc.secs))
           (P.shuffled rng P.check_instances)));
  ( (metric "setup_s" "s" setup_s ~note:"median of 3 set-ups"
     :: round_metrics t ~units:"states_per_s: states" ~op:"check run")
    @ [ rss_metric () ],
    [] )

(* ==== traced runs ==== *)

(* Pipeline.run_checked + Pipeline.record_of_result, one span per
   stage. *)
let traced_pi algo ~n ~req pi =
  let sp name f = Trace.span ~req ~layer:"lb_core" name f in
  let open Lb_core in
  let construction = sp "construct" (fun () -> Construct.run algo ~n pi) in
  let encoding = sp "encode" (fun () -> Encode.encode construction) in
  let canonical = sp "linearize" (fun () -> Linearize.execution construction) in
  let decoded = sp "decode" (fun () -> Decode.run_bits algo ~n encoding.Encode.bits) in
  let cost = sp "cost" (fun () -> Lb_cost.State_change.cost algo ~n canonical) in
  let bits = Encode.length_bits encoding in
  let result = { Pipeline.pi; construction; encoding; canonical; decoded; cost; bits } in
  (match sp "verify" (fun () -> Pipeline.check algo ~n result) with
  | Ok () -> ()
  | Error m -> failwith (sprintf "Pipeline.check %s: %s" req m));
  let fp = sp "fingerprint" (fun () -> Lb_shmem.Execution.fingerprint decoded) in
  Trace.count "pis" 1.;
  Trace.count "metasteps" (float_of_int (Metastep.count construction.Construct.arena));
  Trace.count "bits" (float_of_int bits);
  { Pipeline.r_pi = pi; r_cost = cost; r_bits = bits; r_exec_fp = fp }

let aggregate ctx f algo records =
  let cert =
    Trace.span ~req:(P.name f) ~layer:"lb_core" "aggregate" (fun () ->
        Lb_core.Pipeline.certificate_of_records algo ~n:f.P.n
          ~exhaustive:(P.exhaustive f) records)
  in
  let text = Lb_serve.Protocol.certificate_text cert ^ "\n" in
  operation (cert_ok ctx f text) ("traced certificate " ^ P.name f)

(* Alternate untraced and traced passes over the same inputs until the
   time is up. [pass ~traced r] returns the work units it did; the
   ratio of traced to untraced seconds per unit is the overhead. *)
type passes = { mutable t_secs : float; mutable t_units : float; mutable u_secs : float;
                mutable u_units : float; mutable cpu : float }

let alternate ctx ?max_rounds pass =
  let p = { t_secs = 0.; t_units = 0.; u_secs = 0.; u_units = 0.; cpu = 0. } in
  let untraced r =
    let t0 = now () in
    let u = pass ~traced:false r in
    p.u_secs <- p.u_secs +. (now () -. t0);
    p.u_units <- p.u_units +. u
  in
  let traced r =
    Atomic.set Trace.enabled true;
    let c0 = cpu_now () and t0 = now () in
    let u = pass ~traced:true r in
    p.t_secs <- p.t_secs +. (now () -. t0);
    p.cpu <- p.cpu +. (cpu_now () -. c0);
    p.t_units <- p.t_units +. u;
    Atomic.set Trace.enabled false
  in
  (* odd rounds run the traced pass first, so neither side always
     inherits the other's warm caches *)
  run_rounds ctx ?max_rounds (fun r ->
      if r mod 2 = 0 then (untraced r; traced r) else (traced r; untraced r));
  p

let overhead p = (p.t_secs /. p.t_units) /. (p.u_secs /. p.u_units) -. 1.

(* Layer self times, coverage ([lanes] spans run side by side under a
   root) and the JSONL dump. *)
let trace_summary ctx ~lanes ~overhead:ov =
  let self = Trace.layer_self_seconds () in
  let get l = Option.value ~default:0. (Hashtbl.find_opt self l) in
  let roots =
    Stats.sum
      (List.filter_map
         (fun s -> if s.Trace.layer = "bench" then Some (s.t1 -. s.t0) else None)
         (Trace.all ()))
  in
  let covered = Stats.sum (List.map get layers) in
  let path = Filename.concat ctx.work "trace.jsonl" in
  Trace.write_jsonl path;
  List.map (fun l -> ("layer." ^ l ^ ".self_s", get l)) layers
  @ [ ("trace.coverage", covered /. (roots *. float_of_int lanes));
      ("trace.overhead", ov) ]

(* The lb_core metrics of a traced run over [families]. The first and
   last Construct stage come from Construct.run_stages on the first
   [samples] pi of each family, timed outside the passes: stage 1 alone,
   and stages 1..n minus stages 1..n-1. *)
let pipeline_metrics ~families ~samples =
  let first = ref [] and last = ref [] in
  List.iter
    (fun (f : P.family) ->
      let algo = algo_of f.algo and n = f.n in
      List.iteri
        (fun i pi ->
          if i < samples then begin
            let time stages =
              let t0 = now () in
              ignore (Lb_core.Construct.run_stages algo ~n ~stages pi);
              (now () -. t0) *. 1000.
            in
            first := time 1 :: !first;
            last := (time n -. time (n - 1)) :: !last
          end)
        (P.pis f))
    families;
  let pis = Trace.counter "pis" in
  [
    ("construct.ms_per_pi", span_per "construct" ~per:pis);
    ("encode.ms_per_pi", span_per "encode" ~per:pis);
    ("decode.ms_per_pi", span_per "decode" ~per:pis);
    ("verify.ms_per_pi", span_per "verify" ~per:pis);
    ("fingerprint.ms_per_pi", span_per "fingerprint" ~per:pis);
    ("construct.first_stage_ms", Stats.median !first);
    ("construct.last_stage_ms", Stats.median !last);
    ("pipeline.metasteps_per_pi", Trace.counter "metasteps" /. pis);
    ("pipeline.bits_per_pi", Trace.counter "bits" /. pis);
    ("family.prefix_share", P.prefix_share families);
  ]

let traced_certify_exhaustive ctx =
  let pool_jobs = ctx.jobs in
  let per_family = List.map (fun f -> (f, algo_of f.P.algo, P.pis f)) P.exhaustive_families in
  let rng = Lb_util.Rng.create ctx.seed in
  let p =
    alternate ctx (fun ~traced:_ _ ->
        List.fold_left
          (fun units (f, algo, pis) ->
            let req = P.name f in
            let records, _ =
              Trace.with_root ~req "family" (fun () ->
                  let rs = Lb_util.Pool.map ~jobs:pool_jobs (traced_pi algo ~n:f.P.n ~req) pis in
                  aggregate ctx f algo rs;
                  rs)
            in
            units +. float_of_int (List.length records))
          0. (P.shuffled rng per_family))
  in
  pipeline_metrics ~families:P.exhaustive_families ~samples:16
  @ [ ("pool.busy_frac", p.cpu /. (p.t_secs *. float_of_int pool_jobs)) ]
  @ trace_summary ctx ~lanes:pool_jobs ~overhead:(overhead p)

(* The worker protocol driven through Store_claim / Store / Manifest's
   public functions by [nproc] domains racing over one family: snapshot,
   claim, re-probe the store under the claim, compute, put, heartbeat,
   release; then a sealing pass that reads every entry back, aggregates
   and saves the manifest. The claimers start at evenly spaced offsets
   into the family, so they contend where their walks meet. *)
let lookup ~req st key =
  Trace.span_as ~req ~layer:"lb_store"
    (function `Hit _ -> "store.lookup_hit" | `Absent | `Damaged _ -> "store.lookup_miss")
    (fun () -> Lb_store.Store.lookup st ~key)

let claim_sweep ctx st (f : P.family) =
  let open Lb_store in
  let algo = algo_of f.algo and n = f.n and req = P.name f in
  let pis = Array.of_list (P.pis f) in
  let model = Store_key.sc_model and fp = Store_key.fingerprint algo ~n in
  let keys = Array.map (fun pi -> Store_key.derive ~fp ~algo:f.algo ~n ~pi ~model) pis in
  let sid = Store_key.sweep_id ~fp ~algo:f.algo ~n ~perms:(Array.to_list pis) ~model in
  let claims = Store_claim.open_ st ~sweep_id:sid in
  let total = Array.length pis in
  let sp layer name g = Trace.span ~req ~layer name g in
  let computed = Atomic.make 0 and attempts = Atomic.make 0 and refused = Atomic.make 0 in
  let stolen = Atomic.make 0 and distinct = Hashtbl.create 64 and dmu = Mutex.create () in
  let worker w () =
    let snap = sp "lb_store_claim" "claim.snapshot" (fun () -> Store_claim.snapshot claims) in
    for j = 0 to total - 1 do
      let i = (j + (w * total / ctx.nproc)) mod total in
      let key = keys.(i) in
      let slot = Option.value ~default:Store_claim.Free (Hashtbl.find_opt snap key) in
      Atomic.incr attempts;
      match
        sp "lb_store_claim" "claim.acquire" (fun () ->
            Store_claim.try_claim ~slot claims ~key ~ttl:Store_claim.default_ttl)
      with
      | None -> Atomic.incr refused
      | Some c ->
        (match slot with Store_claim.Held _ -> Atomic.incr stolen | _ -> ());
        (match lookup ~req st key with
        | `Hit _ -> ()
        | `Absent | `Damaged _ ->
          let rc = traced_pi algo ~n ~req pis.(i) in
          sp "lb_store" "store.put" (fun () ->
              Store.put st
                { Store.e_algo = f.algo; e_fp = fp; e_n = n; e_pi = pis.(i); e_model = model;
                  e_cost = rc.Lb_core.Pipeline.r_cost; e_bits = rc.r_bits;
                  e_exec_fp = rc.r_exec_fp; e_ebits = None });
          Atomic.incr computed;
          Mutex.protect dmu (fun () -> Hashtbl.replace distinct key ());
          ignore (sp "lb_store_claim" "claim.refresh" (fun () -> Store_claim.refresh c)));
        sp "lb_store_claim" "claim.release" (fun () -> Store_claim.release c)
    done
  in
  List.init ctx.nproc (fun w -> Domain.spawn (worker w)) |> List.iter Domain.join;
  let records =
    Array.to_list
      (Array.mapi
         (fun i key ->
           match lookup ~req st key with
           | `Hit e ->
             { Lb_core.Pipeline.r_pi = pis.(i); r_cost = e.Store.e_cost;
               r_bits = e.e_bits; r_exec_fp = e.e_exec_fp }
           | `Absent | `Damaged _ -> failwith ("sealing pass: no entry for " ^ key))
         keys)
  in
  aggregate ctx f algo records;
  let manifest =
    { Manifest.m_algo = f.algo; m_fp = fp; m_n = n; m_model = model; m_total = total;
      m_outcomes = Array.to_list (Array.mapi (fun i k -> (pis.(i), Manifest.Done k)) keys) }
  in
  sp "lb_store" "manifest.save" (fun () ->
      Manifest.save ~path:(Store.manifest_path st ~id:sid) manifest);
  Store_claim.scrub claims;
  Array.iter
    (fun key ->
      Trace.count "entry_bytes" (float_of_int (Unix.stat (Store.object_path st ~key)).Unix.st_size);
      Trace.count "entries" 1.)
    keys;
  Trace.count "computed" (float_of_int (Atomic.get computed));
  Trace.count "distinct" (float_of_int (Hashtbl.length distinct));
  Trace.count "attempts" (float_of_int (Atomic.get attempts));
  Trace.count "refused" (float_of_int (Atomic.get refused));
  Trace.count "stolen" (float_of_int (Atomic.get stolen));
  float_of_int total

let traced_store_workers ctx =
  let rounds = Array.of_list (P.store_rounds ~seed:ctx.seed) in
  let stores =
    List.map
      (fun tag ->
        let d = Filename.concat ctx.work tag in
        Proc.fresh_dir d;
        (tag, Lb_store.Store.open_ ~dir:d))
      [ "store-traced"; "store-untraced" ]
  in
  let families = ref [] in
  let p =
    alternate ctx ~max_rounds:P.store_seeds (fun ~traced r ->
        let st = List.assoc (if traced then "store-traced" else "store-untraced") stores in
        List.fold_left
          (fun units f ->
            if traced then families := f :: !families;
            let u, _ = Trace.with_root ~req:(P.name f) "family" (fun () -> claim_sweep ctx st f) in
            units +. u)
          0. rounds.(r))
  in
  let c = Trace.counter in
  let hits = List.length (Trace.durations_ms "store.lookup_hit") in
  pipeline_metrics ~families:!families ~samples:2
  @ [
    ("store.put_ms", span_median "store.put");
    ("store.lookup_hit_ms", span_median "store.lookup_hit");
    ("store.lookup_miss_ms", span_median "store.lookup_miss");
    ("store.bytes_per_entry", c "entry_bytes" /. c "entries");
    ("manifest.save_ms", span_median "manifest.save");
    ("store.hit_frac", float_of_int hits /. float_of_int (hits + List.length (Trace.durations_ms "store.lookup_miss")));
    ("claim.acquire_ms", span_median "claim.acquire");
    ("claim.refresh_ms", span_median "claim.refresh");
    ("claim.release_ms", span_median "claim.release");
    ("claim.snapshot_ms", span_median "claim.snapshot");
    ("claim.contended_frac", c "refused" /. c "attempts");
    ("workers.compute_efficiency", c "distinct" /. c "computed");
    ("workers.stolen", c "stolen");
    ("pool.busy_frac", p.cpu /. (p.t_secs *. float_of_int ctx.nproc));
  ]
  @ trace_summary ctx ~lanes:ctx.nproc ~overhead:(overhead p)

let traced_serve_mixed ctx =
  (* half the time untraced on one server and store, half traced on a
     fresh one, same job streams; the overhead compares median job
     latencies. [nproc] clients, so that jobs queue behind each other. *)
  let half = ctx.seconds /. 2. and clients = ctx.nproc in
  let _, (pid, port, pool) = serve_setup ctx ~store:(Filename.concat ctx.work "store-untraced") in
  let untraced, _ = serve_loop ctx ~clients ~port ~pool ~secs:half ~traced:false in
  stop_server pid;
  let _, (pid, port, pool) = serve_setup ctx ~store:(Filename.concat ctx.work "store-traced") in
  Atomic.set Trace.enabled true;
  let cpu0 = Proc.cpu_seconds pid in
  let (jobs, _), wall =
    Trace.with_root ~req:"serve" "clients" (fun () ->
        serve_loop ctx ~clients ~port ~pool ~secs:half ~traced:true)
  in
  let cpu = Proc.cpu_seconds pid -. cpu0 in
  Atomic.set Trace.enabled false;
  stop_server pid;
  let ms l = List.map (fun s -> s *. 1000.) l in
  let p50 sel js =
    match List.filter sel js with [] -> 0. | l -> Stats.median (ms (List.map (fun j -> j.j_secs) l))
  in
  let swept = List.filter (fun j -> j.j_path = "swept") jobs in
  let queue = List.filter_map (fun j -> j.j_granted) swept in
  let run = List.filter_map (fun j -> Option.map (fun g -> j.j_secs -. g) j.j_granted) swept in
  let hits = List.fold_left (fun a j -> a + j.j_hits) 0 jobs
  and computed = List.fold_left (fun a j -> a + j.j_computed) 0 jobs in
  let warm j = j.j_path = "warm" in
  [
    ("serve.queue_ms", if queue = [] then 0. else Stats.median (ms queue));
    ("serve.run_ms", if run = [] then 0. else Stats.median (ms run));
    ("serve.cold_ms", p50 (fun j -> j.j_path = "swept") jobs);
    ("serve.warm_ms", p50 warm jobs);
    ("serve.refused", float_of_int (List.length (List.filter (fun j -> j.j_refused) jobs)));
    ("serve.stats_ms", span_median "serve.stats");
    ("serve.warm_frac", warm_frac jobs);
    ("store.hit_frac", float_of_int hits /. float_of_int (max 1 (hits + computed)));
    ("pool.busy_frac", cpu /. (wall *. float_of_int clients));
  ]
  @ trace_summary ctx ~lanes:clients ~overhead:(p50 warm jobs /. p50 warm untraced -. 1.)

let traced_check ctx =
  let goldens = check_goldens ctx in
  let spill = Filename.concat ctx.work "spill" in
  (* both passes of round [r] run the instances in the same order *)
  let order r = P.shuffled (Lb_util.Rng.create ((ctx.seed * 1000) + r)) P.check_instances in
  let stats = ref [] in
  let p =
    alternate ctx (fun ~traced r ->
        List.fold_left
          (fun units (i : P.instance) ->
            Proc.rm_rf spill;
            let algo = algo_of i.c_algo in
            let explore () =
              Lb_mutex.Model_check.explore ~max_states:500_000 ~jobs:ctx.jobs
                ?mem_budget:(Option.map (fun b -> b * 1024 * 1024) i.budget_mib)
                ?spill_dir:(Option.map (fun _ -> spill) i.budget_mib)
                algo ~n:i.c_n
            in
            let rep, _ =
              Trace.with_root ~req:(P.instance_name i) "instance" (fun () ->
                  Trace.span ~req:(P.instance_name i) ~layer:"lb_mutex" "check.explore" explore)
            in
            let open Lb_mutex.Model_check in
            operation
              (rep.verdict = Verified
              && check_ok goldens i ~verdict:"verified" ~states:rep.states
                   ~transitions:rep.transitions)
              ("traced check " ^ P.instance_name i);
            if traced then stats := rep :: !stats;
            units +. float_of_int rep.states)
          0. (order r))
  in
  let open Lb_mutex.Model_check in
  let rounds = float_of_int (List.length !stats) /. float_of_int (List.length P.check_instances) in
  let total g = Stats.sum (List.map g !stats) /. rounds in
  [
    ("check.expand_s", total (fun r -> r.stats.expand_seconds));
    ("check.merge_s", total (fun r -> r.stats.merge_seconds));
    ("check.spill_s", total (fun r -> r.stats.spill_seconds));
    ("check.layers", total (fun r -> float_of_int r.stats.layers));
    ( "check.bytes_per_state",
      Stats.sum (List.map (fun r -> float_of_int (r.live_words * (Sys.word_size / 8))) !stats)
      /. Stats.sum (List.map (fun r -> float_of_int r.states) !stats) );
    ("pool.busy_frac", p.cpu /. (p.t_secs *. float_of_int ctx.jobs));
  ]
  @ trace_summary ctx ~lanes:1 ~overhead:(overhead p)

(* ==== main ==== *)

let workloads =
  [
    ("certify-exhaustive", (certify_exhaustive, traced_certify_exhaustive));
    ("store-workers", (store_workers, traced_store_workers));
    ("serve-mixed", (serve_mixed, traced_serve_mixed));
    ("check", (check, traced_check));
  ]

(* JSON has no infinity or NaN; a latency made infinite (or, between two
   infinite samples, NaN) by failed jobs prints as the largest double. *)
let num v =
  if Float.is_finite v then sprintf "%.17g" v
  else if v < 0. then "-1e308" else "1e308"

let emit metrics =
  let correct = Atomic.get failed = 0 in
  let body =
    String.concat ", "
      (List.map
         (fun m -> sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.escape m.m_name)
                     (num m.m_value) (Json.escape m.m_unit))
         metrics)
  in
  printf "error_rate = %s fraction (%d failed of %d operations)\n"
    (num (float_of_int (Atomic.get failed) /. float_of_int (max 1 (Atomic.get attempted))))
    (Atomic.get failed) (Atomic.get attempted);
  printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 (Atomic.get attempted)) (Atomic.get failed) body;
  exit (if correct then 0 else 1)

let run ctx =
  let e2e, traced =
    match List.assoc_opt ctx.workload workloads with
    | Some w -> w
    | None ->
      eprintf "perfbench: unknown workload %S (one of: %s)\n" ctx.workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  Proc.fresh_dir ctx.work;
  printf "perfbench %s seed=%d seconds=%g trace=%d\n" ctx.workload ctx.seed ctx.seconds
    (if ctx.traced then 1 else 0);
  printf
    "env: cores=%d recommended_domain_count=%d ocaml=%s commit=%s jobs=%d workers=%d \
     clients=%d pinned_cpu=%s\n%!"
    ctx.nproc (Domain.recommended_domain_count ()) Sys.ocaml_version ctx.commit ctx.jobs
    ctx.workers ctx.clients ctx.pinned;
  if not ctx.traced then begin
    let metrics, notes = e2e ctx in
    List.iter (printf "input: %s\n") notes;
    List.iter
      (fun m -> printf "metric %s = %s %s (%s)\n" m.m_name (num m.m_value) m.m_unit m.m_note)
      metrics;
    emit metrics
  end
  else begin
    let values = traced ctx in
    let metrics =
      List.map
        (fun (name, u) ->
          let v = Option.value ~default:0. (List.assoc_opt name values) in
          let v = if Float.is_nan v then 0. else v in
          metric name u v)
        per_layer_units
    in
    List.iter (fun m -> printf "metric %s = %s %s\n" m.m_name (num m.m_value) m.m_unit) metrics;
    printf "trace: %d spans written to %s\n" (List.length (Trace.all ()))
      (Filename.concat ctx.work "trace.jsonl");
    emit metrics
  end

(* Regenerate goldens/: certificates from plain `mutexlb certify --jobs
   1` (no store), check counts from `mutexlb check --json`, the latter
   cross-checked against the independent string-key explorer. *)
let regen_goldens ~exe ~goldens ~work =
  Proc.mkdir_p (Filename.concat goldens "cert");
  Proc.mkdir_p work;
  List.iter
    (fun f ->
      let r = Proc.run ~work exe (certify_args f @ [ "--jobs"; "1" ]) in
      if r.Proc.code <> 0 then failwith ("certify failed: " ^ P.name f);
      Out_channel.with_open_bin
        (Filename.concat goldens ("cert/" ^ P.name f ^ ".txt"))
        (fun oc -> output_string oc r.out))
    P.all_families;
  let lines =
    List.map
      (fun (i : P.instance) ->
        Proc.rm_rf (Filename.concat work "spill");
        let r = Proc.run ~work exe (check_args ~work ~jobs:1 i) in
        let j = match Json.parse (String.trim r.Proc.out) with Ok j -> j | Error e -> failwith e in
        let states = int_member "states" j and transitions = int_member "transitions" j in
        let legacy = Legacy_check.explore ~max_states:500_000 (algo_of i.c_algo) ~n:i.c_n in
        if str_member "verdict" j <> Some "verified"
           || legacy.Legacy_check.verdict <> Legacy_check.Verified
           || legacy.states <> states || legacy.transitions <> transitions
        then failwith ("check golden disagrees with the legacy explorer: " ^ P.instance_name i);
        sprintf "%s verified %d %d" (P.instance_name i) states transitions)
      P.check_instances
  in
  Out_channel.with_open_bin (Filename.concat goldens "check.txt") (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  printf "wrote %d certificate goldens and %d check goldens to %s\n"
    (List.length P.all_families) (List.length lines) goldens

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let jobs = ref 0 and workers = ref 0 and clients = ref 0 in
  let exe = ref "_build/default/bin/mutexlb.exe" and goldens = ref "perfbench/goldens" in
  let work = ref ".perfbench" and commit = ref "unknown" and pinned = ref "none" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--nproc", Arg.Set_int nproc, "N cores available");
      ("--jobs", Arg.Set_int jobs, "N domains per certify (default 1)");
      ("--workers", Arg.Set_int workers, "K certify --workers (default 1)");
      ("--clients", Arg.Set_int clients, "C serve clients (default 1)");
      ("--exe", Arg.Set_string exe, "PATH mutexlb executable");
      ("--goldens", Arg.Set_string goldens, "DIR golden outputs");
      ("--work", Arg.Set_string work, "DIR scratch directory (emptied)");
      ("--commit", Arg.Set_string commit, "ID commit stamp");
      ("--pinned", Arg.Set_string pinned, "CPU the run is pinned to, for the stamp");
    ]
  in
  let mode = ref "" in
  Arg.parse spec (fun a -> mode := a) "bench.exe (run|goldens) [options]";
  let pick r default = if !r = 0 then default else !r in
  match !mode with
  | "goldens" -> regen_goldens ~exe:!exe ~goldens:!goldens ~work:!work
  | "run" ->
    let ctx =
      { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1;
        nproc = !nproc; jobs = pick jobs 1; workers = pick workers 1;
        clients = pick clients 1;
        exe = !exe; goldens = !goldens; work = !work; commit = !commit; pinned = !pinned }
    in
    if List.exists (fun v -> v < 1 || v > ctx.nproc) [ ctx.jobs; ctx.workers; ctx.clients ]
    then begin
      eprintf "perfbench: jobs, workers and clients must be within 1..nproc (%d)\n" ctx.nproc;
      exit 2
    end;
    run ctx
  | m ->
    eprintf "perfbench: unknown mode %S (run | goldens)\n" m;
    exit 2
