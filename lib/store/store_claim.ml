let default_ttl = 30.0

type t = { c_store : Store.t; c_sweep : string; c_dir : string }

let claims_root st = Filename.concat (Store.dir st) "claims"

let open_ st ~sweep_id =
  let dir = Filename.concat (claims_root st) sweep_id in
  Lb_util.Fsio.mkdir_p dir;
  { c_store = st; c_sweep = sweep_id; c_dir = dir }

let dir t = t.c_dir

type claim = {
  cl_t : t;
  cl_key : string;
  cl_epoch : int;
  mutable cl_live : bool;
}

let key c = c.cl_key
let epoch c = c.cl_epoch

type slot =
  | Free
  | Held of { epoch : int; age : float }
  | Released of { epoch : int }

let claim_path t ~key ~epoch =
  Filename.concat t.c_dir (Printf.sprintf "%s.%d.claim" key epoch)

let quit_path t ~key ~epoch =
  Filename.concat t.c_dir (Printf.sprintf "%s.%d.quit" key epoch)

let failed_path t ~key = Filename.concat t.c_dir (key ^ ".failed")

(* [<32 hex>.<epoch>.claim|quit] -> (key, epoch, is_claim). Anything
   else in the directory — .failed records, torn temp files, fuzz
   debris — parses to None and is ignored by the protocol. *)
let parse_name name =
  match String.split_on_char '.' name with
  | [ key; e; kind ] when Store_key.is_key key -> (
    match (int_of_string_opt e, kind) with
    | Some e, "claim" when e >= 1 -> Some (key, e, true)
    | Some e, "quit" when e >= 1 -> Some (key, e, false)
    | _ -> None)
  | _ -> None

(* mtime distance from now, in either direction: a file stamped in the
   future (skewed writer, rsync'd store) must age out like any other,
   or it would hold its claim forever. *)
let age_of path =
  match Unix.stat path with
  | st -> abs_float (Unix.gettimeofday () -. st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> infinity

let snapshot t =
  let table = Hashtbl.create 64 in
  (match Sys.readdir t.c_dir with
  | names ->
    Array.iter
      (fun name ->
        match parse_name name with
        | None -> ()
        | Some (key, e, is_claim) ->
          let keep =
            match Hashtbl.find_opt table key with
            | Some (e', _) when e' > e -> false
            | Some (e', was_claim) when e' = e ->
              (* both files at one epoch (release raced a fuzzer's
                 duplicate): the .claim is the conservative read *)
              (not was_claim) && is_claim
            | Some _ | None -> true
          in
          if keep then Hashtbl.replace table key (e, is_claim))
      names
  | exception Sys_error _ -> ());
  let slots = Hashtbl.create (Hashtbl.length table) in
  Hashtbl.iter
    (fun key (e, is_claim) ->
      let slot =
        if is_claim then Held { epoch = e; age = age_of (claim_path t ~key ~epoch:e) }
        else Released { epoch = e }
      in
      Hashtbl.replace slots key slot)
    table;
  slots

let probe_slot t ~key =
  let best = ref Free in
  (match Sys.readdir t.c_dir with
  | names ->
    Array.iter
      (fun name ->
        match parse_name name with
        | Some (k, e, is_claim) when k = key ->
          let better =
            match !best with
            | Free -> true
            | Held { epoch; _ } | Released { epoch } ->
              e > epoch || (e = epoch && is_claim)
          in
          if better then
            best :=
              if is_claim then
                Held { epoch = e; age = age_of (claim_path t ~key ~epoch:e) }
              else Released { epoch = e }
        | Some _ | None -> ())
      names
  | exception Sys_error _ -> ());
  !best

(* Diagnostic only — the protocol never reads claim-file content, so a
   torn write here (or a fuzzer's bit flip later) is harmless. *)
let claim_body ~purpose =
  Printf.sprintf "pid %d\nhost %s\npurpose %s\nsince %.3f\n" (Unix.getpid ())
    (Unix.gethostname ()) purpose (Unix.gettimeofday ())

let sweep_lower_debris t ~key ~below =
  for e = 1 to below - 1 do
    (try Sys.remove (claim_path t ~key ~epoch:e) with Sys_error _ -> ());
    try Sys.remove (quit_path t ~key ~epoch:e) with Sys_error _ -> ()
  done

let create_excl path body =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
    let _ = Unix.write_substring fd body 0 (String.length body) in
    Unix.close fd;
    true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    (* claims dir scrubbed under us — recreate and retry once *)
    Lb_util.Fsio.mkdir_p (Filename.dirname path);
    (match
       Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
     with
    | fd ->
      let _ = Unix.write_substring fd body 0 (String.length body) in
      Unix.close fd;
      true
    | exception Unix.Unix_error _ -> false)

let try_claim ?slot t ~key ~ttl =
  if ttl <= 0.0 then invalid_arg "Store_claim.try_claim: ttl must be positive";
  let slot = match slot with Some s -> s | None -> probe_slot t ~key in
  let target_epoch =
    match slot with
    | Free -> Some 1
    | Released { epoch } -> Some (epoch + 1)
    | Held { epoch; age } -> if age > ttl then Some (epoch + 1) else None
  in
  match target_epoch with
  | None -> None
  | Some e ->
    if create_excl (claim_path t ~key ~epoch:e) (claim_body ~purpose:"work")
    then begin
      sweep_lower_debris t ~key ~below:e;
      Some { cl_t = t; cl_key = key; cl_epoch = e; cl_live = true }
    end
    else None

let refresh c =
  c.cl_live
  &&
  let path = claim_path c.cl_t ~key:c.cl_key ~epoch:c.cl_epoch in
  (* utimes with 0.0 0.0 stamps the current time — the filesystem's
     clock, shared by every worker on the store. ENOENT means a stealer
     fenced us out. *)
  match Unix.utimes path 0.0 0.0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

let release c =
  if c.cl_live then begin
    c.cl_live <- false;
    let from = claim_path c.cl_t ~key:c.cl_key ~epoch:c.cl_epoch in
    let into = quit_path c.cl_t ~key:c.cl_key ~epoch:c.cl_epoch in
    try Sys.rename from into with Sys_error _ -> ()
  end

let abandon = release

(* Link-from-temp publish: the target name appears atomically with its
   complete content (no torn .failed is ever observable), and link(2)
   fails with EEXIST for every publisher but the first. *)
let publish_failure t ~key ~message =
  let target = failed_path t ~key in
  let tmp =
    Filename.concat t.c_dir
      (Printf.sprintf ".failed.tmp.%d.%s" (Unix.getpid ()) key)
  in
  let write_tmp () =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc message)
  in
  (try write_tmp ()
   with Sys_error _ ->
     Lb_util.Fsio.mkdir_p t.c_dir;
     write_tmp ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      match Unix.link tmp target with
      | () -> true
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false)

let failure t ~key =
  match Lb_util.Fsio.read ~path:(failed_path t ~key) () with
  | s -> Some s
  | exception Sys_error _ -> None

let scrub t =
  (match Sys.readdir t.c_dir with
  | names ->
    Array.iter
      (fun name ->
        try Sys.remove (Filename.concat t.c_dir name) with Sys_error _ -> ())
      names
  | exception Sys_error _ -> ());
  try Unix.rmdir t.c_dir with Unix.Unix_error _ -> ()

let live_claims st ~ttl =
  let root = claims_root st in
  let sweeps =
    match Sys.readdir root with
    | names -> Array.to_list names |> List.sort compare
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun sweep_id ->
      let dir = Filename.concat root sweep_id in
      match Sys.readdir dir with
      | names ->
        Array.to_list names
        |> List.filter_map (fun name ->
               match parse_name name with
               | Some (key, _e, true)
                 when age_of (Filename.concat dir name) <= ttl ->
                 Some (sweep_id, key)
               | Some _ | None -> None)
        |> List.sort_uniq compare
      | exception Sys_error _ -> [])
    sweeps
