(* The workloads' inputs, generated from the workload seed.

   Every permutation family goes through [Lb_serve.Protocol.family],
   the selector the CLI and the server use, so the benchmark and the
   program agree on what a (algo, n, perms, seed) family is. The seed
   only picks and orders families from fixed pools; every family in a
   pool has a golden certificate under [goldens/cert/]. *)

type family = { algo : string; n : int; perms : int; seed : int }

let name f = Printf.sprintf "%s-n%d-p%d-s%d" f.algo f.n f.perms f.seed

let pis f =
  fst
    (Lb_serve.Protocol.family ~n:f.n
       ~perms:(Lb_serve.Protocol.clamp_perms ~n:f.n f.perms)
       ~seed:f.seed)

let exhaustive f =
  snd
    (Lb_serve.Protocol.family ~n:f.n
       ~perms:(Lb_serve.Protocol.clamp_perms ~n:f.n f.perms)
       ~seed:f.seed)

let algos = [ "yang_anderson"; "bakery"; "tournament" ]

let cells ns = List.concat_map (fun algo -> List.map (fun n -> (algo, n)) ns) algos

let shuffled rng xs =
  let a = Array.of_list xs in
  Lb_util.Rng.shuffle rng a;
  Array.to_list a

(* certify-exhaustive: all of S_6 for each algorithm; the seed orders
   the families within each round. *)
let exhaustive_families =
  List.map (fun algo -> { algo; n = 6; perms = 720; seed = 1 }) algos

(* store-workers: one sampled family per (algo, n) cell per round, each
   family used once per store, so a run has at most [store_seeds]
   rounds. *)
let store_ns = [ 10; 11; 12 ]
let store_perms = 64
let store_seeds = 10

let store_rounds ~seed =
  let rng = Lb_util.Rng.create seed in
  let cs = cells store_ns in
  let orders = List.map (fun _ -> Lb_util.Rng.permutation rng store_seeds) cs in
  List.init store_seeds (fun r ->
      shuffled rng
        (List.map2
           (fun (algo, n) ord ->
             { algo; n; perms = store_perms; seed = ord.(r) + 1 })
           cs orders))

(* serve-mixed: a pool of one family per (algo, n) cell; each client
   draws its jobs uniformly from the pool with its own stream. *)
let serve_ns = [ 7; 8 ]
let serve_perms = 96
let serve_seeds = 4

let serve_pool ~seed =
  let rng = Lb_util.Rng.create seed in
  List.map
    (fun (algo, n) ->
      { algo; n; perms = serve_perms; seed = Lb_util.Rng.int rng serve_seeds + 1 })
    (cells serve_ns)

let serve_stream ~seed ~client pool =
  let rng = Lb_util.Rng.create ((seed * 7919) + client + 1) in
  let a = Array.of_list pool in
  fun () -> a.(Lb_util.Rng.int rng (Array.length a))

let all_families =
  exhaustive_families
  @ List.concat_map
      (fun (algo, n) ->
        List.init store_seeds (fun s ->
            { algo; n; perms = store_perms; seed = s + 1 }))
      (cells store_ns)
  @ List.concat_map
      (fun (algo, n) ->
        List.init serve_seeds (fun s ->
            { algo; n; perms = serve_perms; seed = s + 1 }))
      (cells serve_ns)

(* check: two in-RAM instances and one under a memory budget that
   forces the spill path. *)
type instance = { c_algo : string; c_n : int; budget_mib : int option }

let check_instances =
  [
    { c_algo = "yang_anderson"; c_n = 3; budget_mib = None };
    { c_algo = "filter"; c_n = 4; budget_mib = None };
    { c_algo = "filter"; c_n = 4; budget_mib = Some 8 };
  ]

let instance_name i =
  Printf.sprintf "%s-n%d%s" i.c_algo i.c_n
    (match i.budget_mib with None -> "" | Some b -> Printf.sprintf "-budget%d" b)

(* Share of (pi, stage) pairs whose stage-length prefix already occurred
   in an earlier pi of the same family: the work a prefix-sharing
   Construct could skip. *)
let prefix_share families =
  let pairs = ref 0 and repeats = ref 0 in
  List.iter
    (fun f ->
      let seen = Hashtbl.create 4096 in
      List.iter
        (fun pi ->
          let a = Lb_core.Permutation.to_array pi in
          for stage = 1 to Array.length a do
            let key = Array.sub a 0 stage in
            incr pairs;
            if Hashtbl.mem seen key then incr repeats
            else Hashtbl.add seen key ()
          done)
        (pis f))
    families;
  float_of_int !repeats /. float_of_int (max 1 !pairs)
