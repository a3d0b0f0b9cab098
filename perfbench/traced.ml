(* The in-process traced run.

   Replays a workload's program streams under the live run's windows
   (two streams, [window] live transactions each, the next program
   submitted when one settles) through the public functions of each
   layer, and times those calls from here: nothing inside lib/ or bin/
   is instrumented.

   Single-engine workloads run three passes over the same call
   sequence:
     A  Engine.create, untraced (Engine.submit timed) — the baseline;
     B  the same composition built here from Runtime.make +
        Admission.create + a timing Gobj.factory, with every layer call
        recorded as a span;
     C  Wal.scan + Engine.recover of the log B wrote.
   A, B and C must emit the same trace, action for action, or the run
   fails.  The sharded workload runs A and B over Shard_cluster.  A and
   B make the same wire and log calls, so B's extra wall time is the
   cost of the spans and the timing factory.

   Layers the workload's own composition does not expose are measured
   on a shorter shadow pass of the same streams: the shard layer on the
   single-engine workloads (a 2-shard cluster), and the engine,
   admission and log layers on the sharded one (a single engine writing
   a log). *)

open Core
module Json = Obs_json

let clock = Unix.gettimeofday
let burst = 256  (* engine steps per serving turn, as ntserved --burst *)

(* Transactions replayed per workload: about one live server's history
   (run.py splits a durable run over ten servers and a sharded one over
   four). *)
let primary_programs = function
  | Workload.Soak -> 800
  | Workload.Durable -> 250
  | Workload.Sharded -> 750

let shadow_programs = 300

(* ----- spans ----- *)

let span_names =
  [|
    "runtime.step"; "gobj.create"; "gobj.try_respond"; "gobj.inform_commit";
    "gobj.inform_abort"; "gobj.waiting_on"; "admission.feed";
    "admission.gate"; "wire.submit_decode"; "wire.state_encode";
    "wal.write"; "wal.sync"; "shard.submit"; "shard.step";
  |]

let s_step = 0
let s_gobj_create = 1
let s_gobj_try = 2
let s_gobj_icommit = 3
let s_gobj_iabort = 4
let s_gobj_waiting = 5
let s_feed = 6
let s_gate = 7
let s_decode = 8
let s_encode = 9
let s_wal_write = 10
let s_wal_sync = 11
let s_shard_submit = 12
let s_shard_step = 13
let is_gobj n = n >= s_gobj_create && n <= s_gobj_waiting
let is_admission n = n = s_feed || n = s_gate

(* Spans live in parallel growable arrays; a span carries its name,
   start, end, parent span and the top-level transaction it serves. *)
module Spans = struct
  type t = {
    mutable n : int;
    mutable name : int array;
    mutable t0 : float array;
    mutable t1 : float array;
    mutable parent : int array;
    mutable txn : int array;
    mutable stack : int list;
  }

  let create () =
    let c = 1 lsl 16 in
    {
      n = 0;
      name = Array.make c 0;
      t0 = Array.make c 0.;
      t1 = Array.make c 0.;
      parent = Array.make c 0;
      txn = Array.make c 0;
      stack = [];
    }

  let grow t =
    let g a d =
      let b = Array.make (2 * Array.length a) d in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- g t.name 0;
    t.t0 <- g t.t0 0.;
    t.t1 <- g t.t1 0.;
    t.parent <- g t.parent 0;
    t.txn <- g t.txn 0

  let open_ t ~name ~txn =
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
    t.txn.(i) <- txn;
    t.stack <- i :: t.stack;
    t.t0.(i) <- clock ();
    i

  let close t i =
    t.t1.(i) <- clock ();
    t.stack <- List.tl t.stack

  let timed t ~name ~txn f =
    let i = open_ t ~name ~txn in
    match f () with
    | v ->
        close t i;
        v
    | exception e ->
        close t i;
        raise e

  let dur t i = t.t1.(i) -. t.t0.(i)

  (* Children of span [i] run inside it, one after another, so self time
     is the span's duration minus the sum of its children's. *)
  let child_time t =
    let c = Array.make t.n 0. in
    for i = 0 to t.n - 1 do
      let p = t.parent.(i) in
      if p >= 0 then c.(p) <- c.(p) +. dur t i
    done;
    c

  let write t path =
    let origin = if t.n > 0 then t.t0.(0) else 0. in
    let oc = open_out path in
    output_string oc "id\tname\tstart_us\tend_us\tparent\ttxn\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%s\t%.3f\t%.3f\t%d\t%d\n" i span_names.(t.name.(i))
        ((t.t0.(i) -. origin) *. 1e6)
        ((t.t1.(i) -. origin) *. 1e6)
        t.parent.(i) t.txn.(i)
    done;
    close_out oc
end

let top_index u = match Txn_id.path u with i :: _ -> i | [] -> -1

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.((Array.length a - 1) / 2)

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ----- the timing Gobj.factory ----- *)

type gstats = {
  mutable tries : int;
  mutable refusals : int;
  blocked_since : float Txn_id.Tbl.t;
  mutable blocked_ms : float list;
}

let gstats () =
  { tries = 0; refusals = 0; blocked_since = Txn_id.Tbl.create 64; blocked_ms = [] }

let timed_factory spans gs ~txn_of (base : Gobj.factory) : Gobj.factory =
 fun schema x ->
  let g = base schema x in
  let wrap name f t = Spans.timed spans ~name ~txn:(txn_of x t) (fun () -> f t) in
  {
    g with
    Gobj.create = wrap s_gobj_create g.Gobj.create;
    inform_commit = wrap s_gobj_icommit g.Gobj.inform_commit;
    inform_abort =
      (fun t ->
        Txn_id.Tbl.remove gs.blocked_since t;
        wrap s_gobj_iabort g.Gobj.inform_abort t);
    waiting_on = wrap s_gobj_waiting g.Gobj.waiting_on;
    try_respond =
      (fun t ->
        let r = wrap s_gobj_try g.Gobj.try_respond t in
        gs.tries <- gs.tries + 1;
        (match r with
        | None ->
            gs.refusals <- gs.refusals + 1;
            if not (Txn_id.Tbl.mem gs.blocked_since t) then
              Txn_id.Tbl.replace gs.blocked_since t (clock ())
        | Some _ -> (
            match Txn_id.Tbl.find_opt gs.blocked_since t with
            | Some t0 ->
                Txn_id.Tbl.remove gs.blocked_since t;
                gs.blocked_ms <- ((clock () -. t0) *. 1e3) :: gs.blocked_ms
            | None -> ()));
        r);
  }

(* The client's Submit frame, and the server's decoding of it: frame
   assembly, the request codec and the program parser. *)
let submit_frame ~req prog =
  Wire.encode_request
    (Wire.Submit { program = Program_io.program_to_string prog; req = Some req })

let decode_submit reader frame =
  Wire.Reader.feed reader frame;
  match Wire.Reader.next reader with
  | Ok (Some payload) -> (
      match Wire.decode_request payload with
      | Ok (Wire.Submit { program; _ }) -> (
          match Program_io.parse_program_text program with
          | Ok p -> p
          | Error e -> failwith e)
      | _ -> failwith "submit frame did not decode")
  | _ -> failwith "submit frame incomplete"

(* ----- the closed loop shared by every pass ----- *)

(* [submit ~req prog] attaches a program and returns its key; [turn ()]
   is one serving turn (up to [burst] steps) and returns the keys that
   completed during it, in completion order. *)
let drive ~n ~window ~streams ~submit ~turn =
  let gens = Array.of_list streams in
  let owner = Hashtbl.create 1024 in
  let sent = Array.make (Array.length gens) 0 in
  let submitted = ref 0 and live = ref 0 in
  let sub c =
    if !submitted < n then begin
      incr submitted;
      incr live;
      sent.(c) <- sent.(c) + 1;
      let req = Printf.sprintf "c%d-%d" c sent.(c) in
      Hashtbl.replace owner (submit ~req (gens.(c) ())) c
    end
  in
  Array.iteri (fun c _ -> for _ = 1 to window do sub c done) gens;
  let idle = ref 0 in
  while !live > 0 do
    let done_ = turn () in
    if done_ = [] then incr idle else idle := 0;
    if !idle > 1000 then failwith "traced run stalled";
    List.iter
      (fun k ->
        match Hashtbl.find_opt owner k with
        | Some c ->
            Hashtbl.remove owner k;
            decr live;
            sub c
        | None -> ())
      done_
  done;
  !submitted

(* ----- the log, as ntserved --wal writes it ----- *)

type log = {
  w : Wal.Writer.t;
  fd : Unix.file_descr;
  mutable cut_at : int;  (* step calls covered by the last Steps record *)
}

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let open_log ?spans path (w : Workload.t) ~seed =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let time name f =
    match spans with
    | None -> f ()
    | Some sp -> Spans.timed sp ~name ~txn:(-1) f
  in
  let sink =
    {
      Wal.write = (fun s -> time s_wal_write (fun () -> write_all fd s));
      sync = (fun () -> time s_wal_sync (fun () -> Unix.fsync fd));
    }
  in
  let writer = Wal.Writer.create ~fsync_batch:1 ~base_seq:0 ~on_sync:ignore sink in
  Wal.Writer.append writer
    (Wal.Meta
       {
         seed;
         backend = "undo";
         policy = "random-step";
         inform = "eager";
         abort_prob = 0.0;
         objects =
           List.map
             (fun (x, dt) -> (Obj_id.name x, Program_io.dtype_decl dt))
             w.Workload.objects;
       });
  { w = writer; fd; cut_at = 0 }

let log_cut lg ~calls =
  Wal.Writer.log_steps lg.w (calls - lg.cut_at);
  lg.cut_at <- calls

let log_submit lg ~calls ~req prog =
  log_cut lg ~calls;
  Wal.Writer.append lg.w
    (Wal.Submit { req = Some req; client = "perfbench"; program = Program_io.program_to_string prog })

let close_log lg ~calls =
  log_cut lg ~calls;
  Wal.Writer.flush lg.w;
  Unix.close lg.fd

let wal_outcome = function
  | Engine.Committed v -> Wal.Committed (Value.to_string v)
  | Engine.Aborted veto -> Wal.Aborted (Option.map (fun v -> v.Admission.witness) veto)
  | Engine.Unknown | Engine.Pending | Engine.Running -> Wal.Aborted None

let wire_state = function
  | Engine.Committed v -> Wire.Committed (Value.to_string v)
  | Engine.Aborted v -> Wire.Aborted (Option.map (fun v -> v.Admission.witness) v)
  | Engine.Unknown | Engine.Pending | Engine.Running -> Wire.Pending

(* ----- pass A: the real engine, untraced ----- *)

type pass = {
  trace : Trace.t;
  wall : float;
  committed : int;
  submitted : int;
}

let pass_a (w : Workload.t) ~seed ~n ~log_path =
  let completed = ref [] in
  let eng =
    Engine.create ~max_steps:100_000_000
      ~on_top_complete:(fun u _ -> completed := u :: !completed)
      ~seed w.Workload.objects (Workload.factory ())
  in
  let lg = open_log log_path w ~seed in
  let submit_s = ref [] in
  let reader = Wire.Reader.create () in
  let reqs = Txn_id.Tbl.create 64 in
  let t0 = clock () in
  let submitted =
    drive ~n ~window:w.Workload.window ~streams:(Workload.streams w ~seed)
      ~submit:(fun ~req prog ->
        let prog = decode_submit reader (submit_frame ~req prog) in
        let s0 = clock () in
        let r = Engine.submit eng prog in
        submit_s := (clock () -. s0) :: !submit_s;
        match r with
        | Ok u ->
            Txn_id.Tbl.replace reqs u req;
            log_submit lg ~calls:(Engine.step_calls eng) ~req prog;
            u
        | Error e -> failwith ("Engine.submit: " ^ e))
      ~turn:(fun () ->
        ignore (Engine.drain ~burst eng);
        let done_ = List.rev !completed in
        completed := [];
        List.iter
          (fun u ->
            let st = Engine.state eng u in
            Wal.Writer.note_outcome lg.w ~txn:u (wal_outcome st);
            let req = Txn_id.Tbl.find_opt reqs u in
            Txn_id.Tbl.remove reqs u;
            ignore (Wire.encode_response (Wire.State { txn = u; state = wire_state st; req })))
          done_;
        log_cut lg ~calls:(Engine.step_calls eng);
        done_)
  in
  close_log lg ~calls:(Engine.step_calls eng);
  let wall = clock () -. t0 in
  let r = Engine.finish eng in
  let submit_us = div (List.fold_left ( +. ) 0. !submit_s *. 1e6) (fi submitted) in
  ( { trace = r.Runtime.trace; wall; committed = r.Runtime.committed_top; submitted },
    submit_us )

(* ----- pass B: the traced single-engine composition ----- *)

type single = {
  s_pass : pass;
  s_spans : Spans.t;
  s_gs : gstats;
  s_actions : int;
  s_informs : int;
  s_stats : Runtime.stats;
  s_vetoes : int;
  s_gates : int;
  s_sg_nodes : int;
  s_sg_edges : int;
  s_alarms : int;
  s_queue_ms : float list;
  s_syncs : int;
  s_bytes : int;
}

(* Engine.create's composition, built here: a schema closed over the
   growing submission vector, an admission controller fed by the action
   tap and consulted as the commit gate, and Runtime.make over the
   (timing) factory. *)
let pass_b (w : Workload.t) ~seed ~n ~log_path =
  let spans = Spans.create () in
  let gs = gstats () in
  let objects = w.Workload.objects in
  let progs = ref [||] and n_progs = ref 0 in
  let sub txn =
    let rec walk prog = function
      | [] -> Some prog
      | i :: rest -> (
          match prog with
          | Program.Node (_, cs) -> (
              match List.nth_opt cs i with Some p -> walk p rest | None -> None)
          | Program.Access _ -> None)
    in
    match Txn_id.path txn with
    | i :: rest when i < !n_progs -> walk !progs.(i) rest
    | _ -> None
  in
  let dtypes = Obj_id.Tbl.create 16 in
  List.iter (fun (x, dt) -> Obj_id.Tbl.replace dtypes x dt) objects;
  let schema =
    {
      Schema.sys =
        System_type.make (fun t ->
            match sub t with
            | Some (Program.Access (x, _)) -> System_type.Access x
            | _ -> System_type.Inner);
      objects = List.map fst objects;
      dtype_of = Obj_id.Tbl.find dtypes;
      op_of =
        (fun t ->
          match sub t with
          | Some (Program.Access (_, op)) -> op
          | _ -> invalid_arg "not an access");
    }
  in
  let adm = Admission.create ~gating:true schema in
  let completed = ref [] in
  let actions = ref 0 and informs = ref 0 and gates = ref 0 in
  let submitted_at = Txn_id.Tbl.create 64 in
  let queue_ms = ref [] in
  let on_action a =
    incr actions;
    (match a with
    | Action.Create u when Txn_id.depth u = 1 -> (
        match Txn_id.Tbl.find_opt submitted_at u with
        | Some t -> queue_ms := ((clock () -. t) *. 1e3) :: !queue_ms
        | None -> ())
    | Action.Commit u | Action.Abort u ->
        if Txn_id.depth u = 1 then completed := u :: !completed
    | Action.Inform_commit _ | Action.Inform_abort _ -> incr informs
    | _ -> ());
    Spans.timed spans ~name:s_feed ~txn:(-1) (fun () -> Admission.on_action adm a)
  in
  let commit_gate u =
    incr gates;
    Spans.timed spans ~name:s_gate ~txn:(top_index u) (fun () -> Admission.gate adm u)
  in
  let factory = timed_factory spans gs ~txn_of:(fun _ t -> top_index t) (Workload.factory ()) in
  let rt =
    Runtime.make ~max_steps:100_000_000 ~obs:Obs.null ~on_action ~commit_gate ~seed
      schema factory []
  in
  let lg = open_log ~spans log_path w ~seed in
  let calls = ref 0 in
  let reader = Wire.Reader.create () in
  let reqs = Txn_id.Tbl.create 64 in
  let origin = clock () in
  let submitted =
    drive ~n ~window:w.Workload.window ~streams:(Workload.streams w ~seed)
      ~submit:(fun ~req prog ->
        let frame = submit_frame ~req prog in
        let prog =
          Spans.timed spans ~name:s_decode ~txn:!n_progs (fun () ->
              decode_submit reader frame)
        in
        let k = !n_progs in
        if k = Array.length !progs then begin
          let grown = Array.make (max 4 (2 * k)) prog in
          Array.blit !progs 0 grown 0 k;
          progs := grown
        end;
        !progs.(k) <- prog;
        n_progs := k + 1;
        let u = Runtime.add_top rt prog in
        Txn_id.Tbl.replace submitted_at u (clock ());
        Txn_id.Tbl.replace reqs u req;
        log_submit lg ~calls:!calls ~req prog;
        u)
      ~turn:(fun () ->
        let rec go budget =
          if budget > 0 then begin
            incr calls;
            match
              Spans.timed spans ~name:s_step ~txn:(-1) (fun () -> Runtime.step rt)
            with
            | `Progress -> go (budget - 1)
            | `Quiescent | `Truncated -> ()
          end
        in
        go burst;
        let done_ = List.rev !completed in
        completed := [];
        List.iter
          (fun u ->
            let st =
              match Runtime.top_state rt u with
              | `Committed v -> Engine.Committed v
              | _ -> Engine.Aborted (Admission.veto_of adm u)
            in
            Wal.Writer.note_outcome lg.w ~txn:u (wal_outcome st);
            let state = wire_state st in
            let req = Txn_id.Tbl.find_opt reqs u in
            Txn_id.Tbl.remove reqs u;
            Txn_id.Tbl.remove submitted_at u;
            ignore
              (Spans.timed spans ~name:s_encode ~txn:(top_index u) (fun () ->
                   Wire.encode_response (Wire.State { txn = u; state; req }))))
          done_;
        log_cut lg ~calls:!calls;
        done_)
  in
  close_log lg ~calls:!calls;
  let wall = clock () -. origin in
  let r = Runtime.finish rt in
  let g = Monitor.graph (Admission.monitor adm) in
  {
    s_pass = { trace = r.Runtime.trace; wall; committed = r.Runtime.committed_top; submitted };
    s_spans = spans;
    s_gs = gs;
    s_actions = !actions;
    s_informs = !informs;
    s_stats = r.Runtime.stats;
    s_vetoes = Admission.vetoed adm;
    s_gates = !gates;
    s_sg_nodes = Graph.n_nodes g;
    s_sg_edges = Graph.n_edges g;
    s_alarms = Admission.alarms adm;
    s_queue_ms = !queue_ms;
    s_syncs = Wal.Writer.syncs lg.w;
    s_bytes = Wal.Writer.bytes_written lg.w;
  }

(* ----- pass C: recovery of B's log into a fresh engine ----- *)

let pass_c (w : Workload.t) ~seed ~log_path =
  let t0 = clock () in
  match Judge.replay w ~seed ~wal:log_path with
  | Error e -> Error e
  | Ok (eng, _) ->
      let replay_s = clock () -. t0 in
      Ok ((Engine.finish eng).Runtime.trace, replay_s)

(* ----- the sharded composition ----- *)

type cluster = {
  c_pass : pass;
  c_spans : Spans.t;
  c_gs : gstats;
  c_actions : int;
  c_informs : int;
  c_stats : Runtime.stats;
  c_vetoes : int;
  c_gates : int;
  c_sg_nodes : int;
  c_sg_edges : int;
  c_alarms : int;
  c_cross : float;
  c_spine_checks : int;
  c_spine_vetoes : int;
  c_spine_edges : int;
}

(* Both passes make the same calls: the Submit frame is built and
   decoded, Shard_cluster.submit routes it, and each completion's State
   is encoded.  [traced = false] is pass A (plain factory, no spans);
   [true] is pass B, which records those calls and each
   Shard_cluster.step_shard as spans and puts a timing factory on every
   shard. *)
let cluster_pass (w : Workload.t) ~seed ~n ~traced =
  let spans = Spans.create () in
  let gs = gstats () in
  let shards = w.Workload.shards in
  let part = Partition.create ~shards w.Workload.objects in
  (* local top index -> merged g, per shard, for span attribution *)
  let merged = Array.init shards (fun _ -> Hashtbl.create 256) in
  let txn_of x t =
    match Hashtbl.find_opt merged.(Partition.shard_of part x) (top_index t) with
    | Some g -> g
    | None -> -1
  in
  let factory =
    if traced then timed_factory spans gs ~txn_of (Workload.factory ()) else Workload.factory ()
  in
  let cl =
    Shard_cluster.create ~max_steps:100_000_000 ~shards ~seed w.Workload.objects factory
  in
  let rt = Shard_cluster.router cl in
  let engine s = Shard_engine.engine (Shard_cluster.engine cl s) in
  let live = ref [] in
  let reader = Wire.Reader.create () in
  let timed name txn f = if traced then Spans.timed spans ~name ~txn f else f () in
  let submit ~req prog =
    let g_next = Shard_router.submitted rt in
    let prog = timed s_decode g_next (fun () -> decode_submit reader (submit_frame ~req prog)) in
    (* an engine's k-th submission is its top-level txn k *)
    let before = Array.init shards (fun s -> Engine.submitted (engine s)) in
    let g =
      timed s_shard_submit g_next (fun () ->
          match Shard_cluster.submit cl prog with Ok g -> g | Error e -> failwith e)
    in
    Array.iteri
      (fun s k0 ->
        for k = k0 to Engine.submitted (engine s) - 1 do
          Hashtbl.replace merged.(s) k g
        done)
      before;
    live := !live @ [ g ];
    g
  in
  let turn () =
    for s = 0 to shards - 1 do
      let rec go budget =
        if budget > 0 then
          match timed s_shard_step (-1) (fun () -> Shard_cluster.step_shard cl s) with
          | `Progress -> go (budget - 1)
          | _ -> ()
      in
      go burst
    done;
    let done_, still =
      List.partition
        (fun g -> Shard_cluster.result cl g <> Shard_router.Pending)
        !live
    in
    live := still;
    List.iter
      (fun g ->
        let state =
          match Shard_cluster.result cl g with
          | Shard_router.Committed v -> Wire.Committed (Value.to_string v)
          | Shard_router.Aborted v ->
              Wire.Aborted (Option.map (fun v -> v.Admission.witness) v)
          | Shard_router.Pending -> Wire.Pending
        in
        ignore
          (timed s_encode g (fun () ->
               Wire.encode_response
                 (Wire.State { txn = Txn_id.of_path [ g ]; state; req = None }))))
      done_;
    done_
  in
  let t0 = clock () in
  let submitted =
    drive ~n ~window:w.Workload.window ~streams:(Workload.streams w ~seed) ~submit ~turn
  in
  let wall = clock () -. t0 in
  let sum f = List.fold_left ( + ) 0 (List.init shards f) in
  let adm s = Engine.admission (engine s) in
  let graph s = Monitor.graph (Admission.monitor (adm s)) in
  let actions = sum (fun s -> Engine.actions_so_far (engine s)) in
  let gates = sum (fun s -> Admission.admitted (adm s) + Admission.vetoed (adm s)) in
  let vetoes = sum (fun s -> Admission.vetoed (adm s)) in
  let sg_nodes = sum (fun s -> Graph.n_nodes (graph s)) in
  let sg_edges = sum (fun s -> Graph.n_edges (graph s)) in
  let cross = div (fi (Shard_router.cross_count rt)) (fi (Shard_router.submitted rt)) in
  let sp = Shard_cluster.spine cl in
  let r, _, _ = Shard_cluster.finish cl in
  let informs =
    Array.fold_left
      (fun a act ->
        match act with Action.Inform_commit _ | Action.Inform_abort _ -> a + 1 | _ -> a)
      0 r.Runtime.trace
  in
  {
    c_pass = { trace = r.Runtime.trace; wall; committed = r.Runtime.committed_top; submitted };
    c_spans = spans;
    c_gs = gs;
    c_actions = actions;
    c_informs = informs;
    c_stats = r.Runtime.stats;
    c_vetoes = vetoes;
    c_gates = gates;
    c_sg_nodes = sg_nodes;
    c_sg_edges = sg_edges;
    c_alarms = sum (fun s -> Admission.alarms (adm s));
    c_cross = cross;
    c_spine_checks = Spine.checks sp;
    c_spine_vetoes = Spine.vetoes sp;
    c_spine_edges = Spine.edge_count sp;
  }

(* ----- metrics ----- *)

type acc = { mutable sum : float; mutable cnt : int }

(* Per-name totals, plus step self/child split. *)
let aggregate (sp : Spans.t) ~step_name =
  let tot = Array.init (Array.length span_names) (fun _ -> { sum = 0.; cnt = 0 }) in
  for i = 0 to sp.Spans.n - 1 do
    let a = tot.(sp.Spans.name.(i)) in
    a.sum <- a.sum +. Spans.dur sp i;
    a.cnt <- a.cnt + 1
  done;
  (* children of step spans, by layer *)
  let steps = ref [] in
  let gobj_in = Array.make sp.Spans.n 0. and adm_in = Array.make sp.Spans.n 0. in
  for i = 0 to sp.Spans.n - 1 do
    let p = sp.Spans.parent.(i) in
    if p >= 0 && sp.Spans.name.(p) = step_name then begin
      let d = Spans.dur sp i in
      if is_gobj sp.Spans.name.(i) then gobj_in.(p) <- gobj_in.(p) +. d
      else if is_admission sp.Spans.name.(i) then adm_in.(p) <- adm_in.(p) +. d
    end
  done;
  let child = Spans.child_time sp in
  for i = sp.Spans.n - 1 downto 0 do
    if sp.Spans.name.(i) = step_name then
      steps := (Spans.dur sp i, child.(i), gobj_in.(i), adm_in.(i)) :: !steps
  done;
  (tot, Array.of_list !steps)

let mean_us tot name = div (tot.(name).sum *. 1e6) (fi tot.(name).cnt)

let gobj_totals tot =
  List.fold_left
    (fun (s, c) n -> (s +. tot.(n).sum, c + tot.(n).cnt))
    (0., 0)
    [ s_gobj_create; s_gobj_try; s_gobj_icommit; s_gobj_iabort; s_gobj_waiting ]

(* Step-time breakdown: mean self µs over all steps and over the last
   fifth, and each layer's share of all step time. *)
let step_breakdown steps =
  let n = Array.length steps in
  let self (d, c, _, _) = d -. c in
  let mean_self lo =
    let s = ref 0. in
    for i = lo to n - 1 do
      s := !s +. self steps.(i)
    done;
    div (!s *. 1e6) (fi (n - lo))
  in
  let total = Array.fold_left (fun a (d, _, _, _) -> a +. d) 0. steps in
  let gobj = Array.fold_left (fun a (_, _, g, _) -> a +. g) 0. steps in
  let adm = Array.fold_left (fun a (_, _, _, m) -> a +. m) 0. steps in
  let selfs = Array.fold_left (fun a s -> a +. self s) 0. steps in
  ( mean_self 0,
    mean_self (n - max 1 (n / 5)),
    div selfs total,
    div gobj total,
    div adm total )

let single_metrics (b : single) ~a_wall ~submit_us ~replay_s ~heap_mb =
  let tot, steps = aggregate b.s_spans ~step_name:s_step in
  let self_us, self_late, sh_rt, sh_gobj, sh_adm = step_breakdown steps in
  let committed = fi b.s_pass.committed in
  let gsum, gcnt = gobj_totals tot in
  [
    ("runtime.step_self_us", self_us, "us");
    ("runtime.step_self_us_late", self_late, "us");
    ("runtime.actions_per_commit", div (fi b.s_actions) committed, "count");
    ("runtime.inform_frac", div (fi b.s_informs) (fi b.s_actions), "frac");
    ("runtime.deadlock_aborts", fi b.s_stats.Runtime.deadlock_aborts, "count");
    ("step.share.runtime", sh_rt, "frac");
    ("step.share.gobj", sh_gobj, "frac");
    ("step.share.admission", sh_adm, "frac");
    ("engine.submit_us", submit_us, "us");
    ("engine.queue_ms_p50", median b.s_queue_ms, "ms");
    ("gobj.call_us", div (gsum *. 1e6) (fi gcnt), "us");
    ("gobj.calls_per_commit", div (fi gcnt) committed, "count");
    ("gobj.refusal_frac", div (fi b.s_gs.refusals) (fi b.s_gs.tries), "frac");
    ("gobj.blocked_ms_p50", median b.s_gs.blocked_ms, "ms");
    ("admission.feed_us", mean_us tot s_feed, "us");
    ("admission.gate_us", mean_us tot s_gate, "us");
    ("admission.gates_per_commit", div (fi b.s_gates) committed, "count");
    ("admission.vetoes", fi b.s_vetoes, "count");
    ("monitor.sg_nodes", fi b.s_sg_nodes, "count");
    ("monitor.sg_edges", fi b.s_sg_edges, "count");
    ("heap.top_mb", heap_mb, "MB");
    ("wal.append_us", mean_us tot s_wal_write, "us");
    ("wal.sync_ms", mean_us tot s_wal_sync /. 1e3, "ms");
    ("wal.syncs_per_commit", div (fi b.s_syncs) committed, "count");
    ("wal.bytes_per_commit", div (fi b.s_bytes) committed, "bytes");
    ("wal.replay_s", replay_s, "s");
    ("wire.submit_decode_us", mean_us tot s_decode, "us");
    ("wire.state_encode_us", mean_us tot s_encode, "us");
    ("trace_overhead_frac", div b.s_pass.wall a_wall -. 1., "frac");
  ]

let cluster_metrics (c : cluster) ~a_wall ~heap_mb =
  let tot, steps = aggregate c.c_spans ~step_name:s_shard_step in
  let self_us, self_late, sh_rt, sh_gobj, _ = step_breakdown steps in
  let committed = fi c.c_pass.committed in
  let gsum, gcnt = gobj_totals tot in
  [
    ("runtime.step_self_us", self_us, "us");
    ("runtime.step_self_us_late", self_late, "us");
    ("runtime.actions_per_commit", div (fi c.c_actions) committed, "count");
    ("runtime.inform_frac", div (fi c.c_informs) (fi c.c_actions), "frac");
    ("runtime.deadlock_aborts", fi c.c_stats.Runtime.deadlock_aborts, "count");
    ("step.share.runtime", sh_rt, "frac");
    ("step.share.gobj", sh_gobj, "frac");
    ("gobj.call_us", div (gsum *. 1e6) (fi gcnt), "us");
    ("gobj.calls_per_commit", div (fi gcnt) committed, "count");
    ("gobj.refusal_frac", div (fi c.c_gs.refusals) (fi c.c_gs.tries), "frac");
    ("gobj.blocked_ms_p50", median c.c_gs.blocked_ms, "ms");
    ("admission.gates_per_commit", div (fi c.c_gates) committed, "count");
    ("admission.vetoes", fi c.c_vetoes, "count");
    ("monitor.sg_nodes", fi c.c_sg_nodes, "count");
    ("monitor.sg_edges", fi c.c_sg_edges, "count");
    ("heap.top_mb", heap_mb, "MB");
    ("wire.submit_decode_us", mean_us tot s_decode, "us");
    ("wire.state_encode_us", mean_us tot s_encode, "us");
    ("shard.submit_us", mean_us tot s_shard_submit, "us");
    ("shard.step_us", mean_us tot s_shard_step, "us");
    ("shard.cross_frac", c.c_cross, "frac");
    ("spine.checks_per_commit", div (fi c.c_spine_checks) committed, "count");
    ("spine.vetoes", fi c.c_spine_vetoes, "count");
    ("spine.edges", fi c.c_spine_edges, "count");
    ("trace_overhead_frac", div c.c_pass.wall a_wall -. 1., "frac");
  ]

let heap_mb () =
  let st = Gc.quick_stat () in
  fi st.Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.

let same_trace a b = Trace.length a = Trace.length b && a = b

let run ~workload ~seed ~dir =
  let w = Option.get (Workload.find workload) in
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  let path f = Filename.concat dir f in
  let n = primary_programs w.Workload.kind in
  let sharded_w = { w with Workload.shards = 2 } in
  let metrics, attempted, b_spans =
    match w.Workload.kind with
    | Workload.Soak | Workload.Durable ->
        let a, submit_us = pass_a w ~seed ~n ~log_path:(path "a.wal") in
        let heap = heap_mb () in
        let b = pass_b w ~seed ~n ~log_path:(path "b.wal") in
        if not (same_trace a.trace b.s_pass.trace) then
          fail "traced composition and Engine emit different traces";
        if b.s_alarms > 0 then fail (Printf.sprintf "%d monitor alarms" b.s_alarms);
        let replay_s =
          match pass_c w ~seed ~log_path:(path "b.wal") with
          | Error e ->
              fail ("recovery of the traced log: " ^ e);
              0.
          | Ok (trace, s) ->
              if not (same_trace trace b.s_pass.trace) then
                fail "recovered engine's trace differs from the traced run's";
              s
        in
        (* the shard layer, on a shadow 2-shard cluster over the same streams *)
        let shadow = cluster_pass sharded_w ~seed ~n:shadow_programs ~traced:true in
        let shard_only =
          List.filter
            (fun (k, _, _) ->
              List.mem k
                [ "shard.submit_us"; "shard.step_us"; "shard.cross_frac";
                  "spine.checks_per_commit"; "spine.vetoes"; "spine.edges" ])
            (cluster_metrics shadow ~a_wall:1. ~heap_mb:0.)
        in
        ( single_metrics b ~a_wall:a.wall ~submit_us ~replay_s ~heap_mb:heap @ shard_only,
          b.s_pass.submitted,
          b.s_spans )
    | Workload.Sharded ->
        let a = cluster_pass w ~seed ~n ~traced:false in
        let heap = heap_mb () in
        let b = cluster_pass w ~seed ~n ~traced:true in
        if not (same_trace a.c_pass.trace b.c_pass.trace) then
          fail "traced and untraced cluster passes emit different traces";
        if b.c_alarms > 0 then fail (Printf.sprintf "%d monitor alarms" b.c_alarms);
        (* engine, admission and log layers, on a shadow single engine
           over the same streams *)
        let _, submit_us = pass_a w ~seed ~n:shadow_programs ~log_path:(path "a.wal") in
        let sb = pass_b w ~seed ~n:shadow_programs ~log_path:(path "b.wal") in
        let replay_s =
          match pass_c w ~seed ~log_path:(path "b.wal") with
          | Error e ->
              fail ("recovery of the shadow log: " ^ e);
              0.
          | Ok (_, s) -> s
        in
        let from_shadow =
          List.filter
            (fun (k, _, _) ->
              List.mem k
                [ "engine.submit_us"; "engine.queue_ms_p50"; "admission.feed_us";
                  "admission.gate_us"; "wal.append_us"; "wal.sync_ms"; "wal.syncs_per_commit";
                  "wal.bytes_per_commit"; "wal.replay_s" ])
            (single_metrics sb ~a_wall:1. ~submit_us ~replay_s ~heap_mb:0.)
        in
        ( cluster_metrics b ~a_wall:a.c_pass.wall ~heap_mb:heap @ from_shadow,
          b.c_pass.submitted,
          b.c_spans )
  in
  Spans.write b_spans (path "spans.tsv");
  (* Step-time shares are printed, not reported: they explain the
     per-layer numbers rather than measure a layer. *)
  let shares, metrics =
    List.partition (fun (k, _, _) -> String.starts_with ~prefix:"step.share." k) metrics
  in
  List.iter (fun (k, v, _) -> Printf.printf "%s %.4f of step time\n" k v) shares;
  Printf.printf "traced run: %d programs, %d spans written to spans.tsv\n" attempted
    b_spans.Spans.n;
  let doc =
    Json.Obj
      [
        ("attempted", Json.Int attempted);
        ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) !failures));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, v, u) ->
                 (k, Json.Obj [ ("value", Json.Str (Printf.sprintf "%.17g" v)); ("unit", Json.Str u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string doc)
