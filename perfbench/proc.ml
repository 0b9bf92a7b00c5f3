(* Subprocesses of the benchmark: the mutexlb CLI verbs and the serve
   daemon. Every child is reaped with wait4 so its peak resident set
   size feeds [peak_rss_mb]. *)

external wait4 : int -> int * int * int = "perf_wait4"

type result = {
  code : int;  (** exit code, or -1 when killed by a signal *)
  signal : int;
  out : string;
  err : string;
  secs : float;  (** wall-clock from spawn to reap *)
}

(* Largest ru_maxrss (KiB) among reaped children, and how many were
   reaped. *)
let peak_rss_kb = ref 0
let reaped = ref 0

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let reap pid =
  let code, signal, rss = wait4 pid in
  incr reaped;
  if rss > !peak_rss_kb then peak_rss_kb := rss;
  (code, signal)

(* [spawn ~work ~tag exe args] starts [exe args] with stdout and stderr
   sent to files under [work] named after [tag]. *)
let spawn ~work ~tag exe args =
  let out = Filename.concat work (tag ^ ".out")
  and err = Filename.concat work (tag ^ ".err") in
  let fd p = Unix.openfile p [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let o = fd out and e = fd err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin o e
  in
  Unix.close o;
  Unix.close e;
  (pid, out, err)

let run ~work ?(tag = "proc") exe args =
  let t0 = Unix.gettimeofday () in
  let pid, out, err = spawn ~work ~tag exe args in
  let code, signal = reap pid in
  let secs = Unix.gettimeofday () -. t0 in
  { code; signal; out = read_file out; err = read_file err; secs }

(* CPU seconds (user + system) a live process has used so far, from
   /proc/<pid>/stat; 0 when unavailable. *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | s ->
    (* fields after the parenthesised command name start at field 3;
       utime and stime are fields 14 and 15, in ticks of 1/100 s *)
    let close = String.rindex s ')' in
    let fields =
      String.split_on_char ' '
        (String.sub s (close + 2) (String.length s - close - 2))
    in
    let tick i = float_of_string (List.nth fields i) in
    (tick 11 +. tick 12) /. 100.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let fresh_dir path =
  rm_rf path;
  mkdir_p path
