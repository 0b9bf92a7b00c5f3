(* Spans and counters for the traced run.

   Spans are recorded only from the benchmark's own code, around each
   call it makes into a library layer's public functions; the library
   itself carries no tracing. Every span has a name, the layer it
   times, start and end (Unix time, seconds), its parent span and a
   request id naming the family, job or check instance it served.
   Spans are held in memory and written out as JSONL once the run
   ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  layer : string;
  req : string;
  t0 : float;
  t1 : float;
}

let enabled = Atomic.make false
let next_id = Atomic.make 1
let mu = Mutex.create ()
let spans : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

(* The innermost open span of the current domain. Pool workers start at
   0 and inherit [root] instead, so their spans hang off the pass that
   spawned them. *)
let current = Domain.DLS.new_key (fun () -> 0)
let root = Atomic.make 0

(* [span_as ~layer name_of f] times [f ()] as a span of [layer] named
   after its result (a lookup is a hit or a miss only once it returns). *)
let span_as ?(req = "") ~layer name_of f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let prev = Domain.DLS.get current in
    let parent = if prev = 0 then Atomic.get root else prev in
    Domain.DLS.set current id;
    let t0 = Unix.gettimeofday () in
    let close name =
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set current prev;
      let s = { id; parent; name; layer; req; t0; t1 } in
      Mutex.protect mu (fun () -> spans := s :: !spans)
    in
    match f () with
    | r ->
      close (name_of r);
      r
    | exception e ->
      close "exception";
      raise e
  end

let span ?req ~layer name f = span_as ?req ~layer (fun _ -> name) f

(* [with_root ~req name f] runs [f] under a root span of layer
   ["bench"] that every span opened meanwhile, in any domain, descends
   from. Returns [f]'s result and the root's duration. *)
let with_root ~req name f =
  let t0 = Unix.gettimeofday () in
  if not (Atomic.get enabled) then
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    Atomic.set root id;
    let r = Fun.protect ~finally:(fun () -> Atomic.set root 0) f in
    let t1 = Unix.gettimeofday () in
    Mutex.protect mu (fun () ->
        spans :=
          { id; parent = 0; name; layer = "bench"; req; t0; t1 } :: !spans);
    (r, t1 -. t0)
  end

let count name v =
  if Atomic.get enabled then
    Mutex.protect mu (fun () ->
        let old = Option.value ~default:0. (Hashtbl.find_opt counters name) in
        Hashtbl.replace counters name (old +. v))

let counter name =
  Mutex.protect mu (fun () ->
      Option.value ~default:0. (Hashtbl.find_opt counters name))

let all () = Mutex.protect mu (fun () -> List.rev !spans)

(* Durations (ms) of every span called [name]. *)
let durations_ms name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1000.) else None)
    (all ())

(* Self time of each span: its duration minus the union of its
   children's intervals (children of a root run in parallel domains, so
   their intervals may overlap). Summed per layer. *)
let layer_self_seconds () =
  let ss = all () in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) ss;
  let covered s =
    let ivs =
      List.sort compare
        (List.map
           (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
           (Hashtbl.find_all kids s.id))
    in
    let total, _ =
      List.fold_left
        (fun (acc, hi) (a, b) ->
          let a = Float.max a hi in
          if b > a then (acc +. (b -. a), b) else (acc, hi))
        (0., neg_infinity) ivs
    in
    total
  in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self = Float.max 0. (s.t1 -. s.t0 -. covered s) in
      let old = Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (old +. self))
    ss;
  by_layer

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%s,\"layer\":%s,\"req\":%s,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent
        (Lb_util.Json.escape s.name)
        (Lb_util.Json.escape s.layer)
        (Lb_util.Json.escape s.req)
        s.t0 s.t1)
    (all ());
  close_out oc
