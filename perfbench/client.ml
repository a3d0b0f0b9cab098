(* The live closed-loop client: one process, [Workload.conns]
   connections to a running ntserved, each keeping [window]
   transactions in flight.  A transaction is submitted, then its
   Status is polled until a terminal State arrives; the next program of
   that connection's stream goes out as soon as one settles.  Latency is
   Submit sent -> terminal State received, kept as raw samples.

   Everything the output gate needs is checked here: request-id echoes,
   settlement, and the client's counts against the server's Quiesced
   answer (and its per-shard rows on sharded servers). *)

open Core
module Json = Obs_json

type outcome = Live | Committed of string | Aborted | Rejected of string

type sub = {
  req : string;
  pieces : int;  (* shards the program touches *)
  t_send : float;
  mutable txn : Txn_id.t option;
  mutable t_done : float;
  mutable outcome : outcome;
}

type conn = {
  idx : int;
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  out : Buffer.t;
  mutable out_off : int;
  mutable sent : int;  (* submissions so far *)
  next : unit -> Program.t;
  footprint : Program.t -> int;
  by_req : (string, sub) Hashtbl.t;
  by_txn : (string, sub) Hashtbl.t;  (* keyed by Txn_id.to_string *)
  mutable live : int;
}

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send c req = Buffer.add_string c.out (Wire.encode_request req)

let flush_blocking c =
  let s = Buffer.contents c.out in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  go c.out_off;
  Buffer.clear c.out;
  c.out_off <- 0

(* Read frames until [f] returns [Some]; for the sequential
   handshake/shutdown steps outside the closed loop. *)
let rec await c f =
  match Wire.Reader.next c.reader with
  | Error e -> failwith ("protocol error: " ^ e)
  | Ok (Some payload) -> (
      match Wire.decode_response payload with
      | Error e -> failwith ("undecodable response: " ^ e)
      | Ok r -> ( match f r with Some v -> v | None -> await c f))
  | Ok None ->
      let buf = Bytes.create 65536 in
      let n = Unix.read c.fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "server closed the connection";
      Wire.Reader.feed c.reader (Bytes.sub_string buf 0 n);
      await c f

let all_subs = ref []

let submit c =
  let prog = c.next () in
  c.sent <- c.sent + 1;
  let req = Printf.sprintf "c%d-%d" c.idx c.sent in
  let s =
    {
      req;
      pieces = c.footprint prog;
      t_send = Unix.gettimeofday ();
      txn = None;
      t_done = 0.;
      outcome = Live;
    }
  in
  Hashtbl.replace c.by_req req s;
  all_subs := s :: !all_subs;
  c.live <- c.live + 1;
  send c
    (Wire.Submit { program = Program_io.program_to_string prog; req = Some req })

let settle c s outcome =
  s.t_done <- Unix.gettimeofday ();
  s.outcome <- outcome;
  c.live <- c.live - 1

let on_response c ~accepting (r : Wire.response) =
  match r with
  | Wire.Accepted { txn; req } -> (
      match Option.bind req (Hashtbl.find_opt c.by_req) with
      | Some s when s.txn = None ->
          s.txn <- Some txn;
          Hashtbl.replace c.by_txn (Txn_id.to_string txn) s;
          send c (Wire.Status txn)
      | _ -> fail "accepted answer with unexpected request id")
  | Wire.Rejected { why; req } -> (
      match Option.bind req (Hashtbl.find_opt c.by_req) with
      | Some s when s.outcome = Live ->
          settle c s (Rejected why);
          if accepting () then submit c
      | _ -> fail "rejected answer with unexpected request id")
  | Wire.State { txn; state; req } -> (
      match Hashtbl.find_opt c.by_txn (Txn_id.to_string txn) with
      | Some s when req = Some s.req && s.outcome = Live -> (
          match state with
          | Wire.Pending | Wire.Running -> send c (Wire.Status txn)
          | Wire.Committed v ->
              settle c s (Committed v);
              if accepting () then submit c
          | Wire.Aborted _ ->
              settle c s Aborted;
              if accepting () then submit c)
      | _ -> fail "state answer for %s echoes a mismatched request id"
               (Txn_id.to_string txn))
  | Wire.Error_msg e -> fail "server error: %s" e
  | _ -> fail "unexpected answer in the closed loop"

let pump c ~accepting =
  let rec go () =
    match Wire.Reader.next c.reader with
    | Error e -> failwith ("protocol error: " ^ e)
    | Ok None -> ()
    | Ok (Some payload) ->
        (match Wire.decode_response payload with
        | Ok r -> on_response c ~accepting r
        | Error e -> fail "undecodable response: %s" e);
        go ()
  in
  go ()

let closed_loop w conns ~seconds ~settle_s =
  let t_start = Unix.gettimeofday () in
  let stop_at = t_start +. seconds in
  let give_up = stop_at +. settle_s in
  let accepting () = Unix.gettimeofday () < stop_at in
  List.iter (fun c -> for _ = 1 to w.Workload.window do submit c done) conns;
  let buf = Bytes.create 65536 in
  let live () = List.exists (fun c -> c.live > 0) conns in
  while live () && Unix.gettimeofday () < give_up do
    let wfds =
      List.filter_map
        (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
        conns
    in
    let rfds = List.map (fun c -> c.fd) conns in
    let r, wr, _ =
      try Unix.select rfds wfds [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.mem c.fd wr then begin
          let s = Buffer.contents c.out in
          let pending = String.length s - c.out_off in
          let n = Unix.write_substring c.fd s c.out_off pending in
          c.out_off <- c.out_off + n;
          if c.out_off = String.length s then begin
            Buffer.clear c.out;
            c.out_off <- 0
          end
        end;
        if List.mem c.fd r then begin
          let n = Unix.read c.fd buf 0 (Bytes.length buf) in
          if n = 0 then failwith "server closed the connection";
          Wire.Reader.feed c.reader (Bytes.sub_string buf 0 n);
          pump c ~accepting
        end)
      conns
  done;
  (t_start, stop_at)

let run ~socket ~workload ~seed ~seconds ~settle_s ~out =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let footprint = Workload.footprint w in
  let conns =
    List.mapi
      (fun idx next ->
        {
          idx;
          fd = connect socket;
          reader = Wire.Reader.create ();
          out = Buffer.create 4096;
          out_off = 0;
          sent = 0;
          next;
          footprint;
          by_req = Hashtbl.create 1024;
          by_txn = Hashtbl.create 1024;
          live = 0;
        })
      (Workload.streams w ~seed)
  in
  let expected =
    List.map
      (fun (x, dt) -> (Obj_id.name x, Program_io.dtype_decl dt))
      w.Workload.objects
  in
  List.iter
    (fun c ->
      send c (Wire.Hello { client = Printf.sprintf "perfbench-%d" c.idx });
      flush_blocking c;
      await c (function
        | Wire.Welcome { objects; shards; _ } ->
            if objects <> expected then fail "server object table differs";
            if shards <> w.Workload.shards then fail "server runs %d shards" shards;
            Some ()
        | _ -> None))
    conns;
  let t_start, stop_at = closed_loop w conns ~seconds ~settle_s in
  let subs = List.rev !all_subs in
  let count p = List.length (List.filter p subs) in
  let committed = count (fun s -> match s.outcome with Committed _ -> true | _ -> false) in
  let aborted = count (fun s -> s.outcome = Aborted) in
  let rejected = count (fun s -> match s.outcome with Rejected _ -> true | _ -> false) in
  let unsettled = count (fun s -> s.outcome = Live) in
  if unsettled > 0 then fail "%d submissions unsettled" unsettled;
  if rejected > 0 then fail "%d submissions rejected" rejected;
  let c0 = List.hd conns in
  List.iter flush_blocking conns;
  let quiesce () =
    send c0 Wire.Quiesce;
    flush_blocking c0;
    await c0 (function
      | Wire.Quiesced { committed = qc; aborted = qa; vetoed; alarms; per_shard } ->
          Some (qc, qa, vetoed, alarms, per_shard)
      | _ -> None)
  in
  (* Every row must be settled, and the rows must sum to what the
     client dispatched (one piece per shard a program touches) and to
     the answer's veto total.  [] when they do. *)
  let row_errors vetoed rows =
    if w.Workload.shards = 1 then []
    else
      let pieces = List.fold_left (fun a s -> a + s.pieces) 0 subs in
      let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
      List.concat
        [
          (if List.length rows <> w.Workload.shards then
             [ Printf.sprintf "%d per-shard rows for %d shards" (List.length rows)
                 w.Workload.shards ]
           else []);
          (if sum (fun r -> r.Wire.r_submitted) <> pieces then
             [ Printf.sprintf "per-shard submitted sums to %d, client dispatched %d pieces"
                 (sum (fun r -> r.Wire.r_submitted)) pieces ]
           else []);
          (if sum (fun r -> r.Wire.r_live) <> 0 then [ "per-shard live rows nonzero" ]
           else []);
          List.filter_map
            (fun r ->
              if r.Wire.r_committed + r.Wire.r_aborted <> r.Wire.r_submitted then
                Some (Printf.sprintf "shard %d: committed + aborted <> submitted" r.Wire.r_shard)
              else None)
            rows;
          (if sum (fun r -> r.Wire.r_vetoed) <> vetoed then
             [ "per-shard vetoes do not sum to the total" ]
           else []);
        ]
  in
  (* A sharded server answers Quiesce once the router has seen every
     report, but its per-shard rows are the workers' last published
     snapshots, which can trail by one drain: ask again (for up to 2 s)
     until they settle. *)
  let rec settled_quiesce tries =
    let ((_, _, vetoed, _, rows) as q) = quiesce () in
    match row_errors vetoed rows with
    | [] -> (q, tries, [])
    | errs when tries >= 200 -> (q, tries, errs)
    | _ ->
        Unix.sleepf 0.01;
        settled_quiesce (tries + 1)
  in
  let (qc, qa, vetoed, alarms, _), quiesce_retries, row_errs =
    if unsettled = 0 then settled_quiesce 0
    else
      let q = quiesce () in
      (q, 0, [])
  in
  List.iter (fun e -> fail "%s" e) row_errs;
  if unsettled = 0 && (qc <> committed || qa <> aborted) then
    fail "client saw %d committed/%d aborted, server quiesced at %d/%d"
      committed aborted qc qa;
  if alarms <> 0 then fail "%d monitor alarms" alarms;
  List.iter (fun c -> Unix.close c.fd) conns;
  let us t = Json.Int (int_of_float (Float.round ((t -. t_start) *. 1e6))) in
  let settled = List.filter (fun s -> s.outcome <> Live) subs in
  let doc =
    Json.Obj
      [
        ("submitted", Json.Int (List.length subs));
        ("committed", Json.Int committed);
        ("aborted", Json.Int aborted);
        ("rejected", Json.Int rejected);
        ("unsettled", Json.Int unsettled);
        ("vetoed", Json.Int vetoed);
        ("quiesce_retries", Json.Int quiesce_retries);
        ("stop_us", us stop_at);
        ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) !failures));
        (* Per settled submission: send and settle times in µs since the
           first submission, and whether it committed. *)
        ( "samples",
          Json.Arr
            (List.map
               (fun s ->
                 Json.Arr
                   [
                     us s.t_send;
                     us s.t_done;
                     Json.Bool (match s.outcome with Committed _ -> true | _ -> false);
                   ])
               settled) );
        ( "outcomes",
          Json.Arr
            (List.filter_map
               (fun s ->
                 match (s.txn, s.outcome) with
                 | Some t, Committed v ->
                     Some (Json.Arr [ Json.Str (Txn_id.to_string t); Json.Str ("c:" ^ v) ])
                 | Some t, Aborted ->
                     Some (Json.Arr [ Json.Str (Txn_id.to_string t); Json.Str "a" ])
                 | _ -> None)
               subs) );
      ]
  in
  let oc = open_out out in
  Json.output oc doc;
  close_out oc

(* Ask a (restarted) server for the state of every transaction a client
   saw settle and compare: the recovered server must report exactly the
   outcomes that were acknowledged before the restart. *)
let verify ~socket ~outcomes =
  let fd = connect socket in
  let c =
    {
      idx = 0;
      fd;
      reader = Wire.Reader.create ();
      out = Buffer.create 4096;
      out_off = 0;
      sent = 0;
      next = (fun () -> assert false);
      footprint = (fun _ -> 1);
      by_req = Hashtbl.create 1;
      by_txn = Hashtbl.create 1;
      live = 0;
    }
  in
  let mismatches = ref 0 in
  List.iter
    (fun (t, expect) ->
      send c (Wire.Status t);
      flush_blocking c;
      let got =
        await c (function
          | Wire.State { txn; state; _ } when Txn_id.equal txn t -> Some state
          | _ -> None)
      in
      let ok =
        match got with
        | Wire.Committed v -> expect = "c:" ^ v
        | Wire.Aborted _ -> expect = "a"
        | Wire.Pending | Wire.Running -> false
      in
      if not ok then incr mismatches)
    outcomes;
  Unix.close fd;
  !mismatches
