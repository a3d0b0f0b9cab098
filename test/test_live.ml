(* The live serving loop: spawn the built ntserved in a scratch
   directory and drive it over its Unix socket, once per engine host
   (--shards 1 steps one engine in the loop, --shards 2 serves from a
   worker pool), plus the disconnect regression on a logged server. *)

open Core
open Util

let server_exe = "../bin/ntserved.exe"

(* Run [f] in a fresh scratch directory, removed afterwards (the
   server writes only plain files there). *)
let in_scratch_dir f =
  let dir = Filename.temp_file "ntlive" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

type client = { fd : Unix.file_descr; reader : Wire.Reader.t }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        (* a hung server fails the read instead of the whole run *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
        { fd; reader = Wire.Reader.create () }
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 500

let rec recv c =
  match Wire.Reader.next c.reader with
  | Error e -> Alcotest.fail ("frame: " ^ e)
  | Ok (Some payload) -> (
      match Wire.decode_response payload with
      | Ok r -> r
      | Error e -> Alcotest.fail ("decode: " ^ e))
  | Ok None ->
      let buf = Bytes.create 4096 in
      let n = Unix.read c.fd buf 0 4096 in
      if n = 0 then Alcotest.fail "server closed the connection";
      Wire.Reader.feed c.reader (Bytes.sub_string buf 0 n);
      recv c

let call c req =
  write_all c.fd (Wire.encode_request req) 0;
  recv c

let unexpected what r =
  Alcotest.failf "%s: unexpected %a" what Wire.pp_response r

(* Greet; returns the advertised shard count. *)
let hello c =
  match call c (Wire.Hello { client = "live" }) with
  | Wire.Welcome { shards; _ } -> shards
  | r -> unexpected "hello" r

(* Start ntserved on DIR/nt.sock with [args], run [f sock], and
   demand a clean exit. *)
let with_server dir args f =
  let sock = Filename.concat dir "nt.sock" in
  let log =
    Unix.openfile
      (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o600
  in
  let env =
    Array.append
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |]
      (Unix.environment ())
  in
  let argv =
    Array.of_list
      ([ server_exe; "--socket"; sock; "--flight-dir"; dir ] @ args)
  in
  let pid = Unix.create_process_env server_exe argv env Unix.stdin log log in
  Unix.close log;
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.02;
        reap (tries - 1)
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "ntserved did not exit after Shutdown"
    | _, status -> status
  in
  match f sock with
  | () -> check_bool "ntserved exits 0" true (reap 1000 = Unix.WEXITED 0)
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* Shard-local by construction: each program touches one register. *)
let program i =
  let x = Obj_id.indexed "r" (i mod 8) in
  Program_io.program_to_string
    (Program.seq
       [
         Program.access x Datatype.Read;
         Program.access x (Datatype.Write (Value.Int i));
       ])

let submit c i =
  let req = Some (Printf.sprintf "t-%d" i) in
  match call c (Wire.Submit { program = program i; req }) with
  | Wire.Accepted { txn; req = echoed } ->
      check_bool "accept echoes the request id" true (echoed = req);
      txn
  | r -> unexpected "submit" r

let rec settle c t tries =
  match call c (Wire.Status t) with
  | Wire.State { state = Wire.Committed _ | Wire.Aborted _; req; _ } -> req
  | Wire.State _ when tries > 0 ->
      Unix.sleepf 0.005;
      settle c t (tries - 1)
  | r -> unexpected "status" r

let quiesce c =
  match call c Wire.Quiesce with
  | Wire.Quiesced { committed; aborted; per_shard; _ } ->
      (committed, aborted, per_shard)
  | r -> unexpected "quiesce" r

let shutdown c =
  (match call c Wire.Shutdown with
  | Wire.Goodbye -> ()
  | r -> unexpected "shutdown" r);
  Unix.close c.fd

let n = 12

let t_round_trip shards () =
  in_scratch_dir @@ fun dir ->
  with_server dir
    [ "--shards"; string_of_int shards; "--types"; "rw"; "--objects"; "8" ]
    (fun sock ->
      let c = connect sock in
      check_int "welcome reports the shard count" shards (hello c);
      let txns = List.init n (submit c) in
      List.iteri
        (fun i t ->
          check_bool "state echoes the request id" true
            (settle c t 2000 = Some (Printf.sprintf "t-%d" i)))
        txns;
      let committed, aborted, rows = quiesce c in
      check_int "every submission settled" n (committed + aborted);
      let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
      if shards = 1 then check_int "no per-shard rows" 0 (List.length rows)
      else begin
        check_int "one row per shard" shards (List.length rows);
        check_int "rows sum to committed" committed
          (sum (fun r -> r.Wire.r_committed));
        check_int "rows sum to aborted" aborted
          (sum (fun r -> r.Wire.r_aborted));
        check_int "nothing live" 0 (sum (fun r -> r.Wire.r_live))
      end;
      (match call c Wire.Dump with
      | Wire.Dumped d -> check_bool "dump has spans" true (d.spans > 0)
      | r -> unexpected "dump" r);
      shutdown c)

(* A client that never polls Status and then disconnects must not
   orphan-kill what already completed: the log holds no Kill record. *)
let t_disconnect_kills_only_live () =
  in_scratch_dir @@ fun dir ->
  let wal = Filename.concat dir "nt.wal" in
  with_server dir
    [ "--types"; "rw"; "--objects"; "8"; "--fsync-batch"; "0"; "--wal"; wal ]
    (fun sock ->
      let c = connect sock in
      ignore (hello c);
      ignore (List.init n (submit c));
      ignore (quiesce c);
      Unix.close c.fd;
      (* wait until the server has seen the disconnect *)
      let c = connect sock in
      let rec alone tries =
        match call c Wire.Ping with
        | Wire.Pong { conns = 1; _ } -> ()
        | Wire.Pong _ when tries > 0 ->
            Unix.sleepf 0.01;
            alone (tries - 1)
        | r -> unexpected "ping" r
      in
      alone 500;
      shutdown c);
  let ic = open_in_bin wal in
  let image = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Wal.scan ~magic:Wal.wal_magic image with
  | Error e -> Alcotest.fail e
  | Ok sc ->
      let submits, kills =
        List.fold_left
          (fun (s, k) -> function
            | Wal.Submit _ -> (s + 1, k)
            | Wal.Kill _ -> (s, k + 1)
            | _ -> (s, k))
          (0, 0) sc.Wal.sc_records
      in
      check_int "every submission logged" n submits;
      check_int "no kill records" 0 kills

let suite =
  ( "live",
    [
      Alcotest.test_case "serve loop, in-loop engine (1 shard)" `Quick
        (t_round_trip 1);
      Alcotest.test_case "serve loop, worker pool (2 shards)" `Quick
        (t_round_trip 2);
      Alcotest.test_case "disconnect kills only live submissions" `Quick
        t_disconnect_kills_only_live;
    ] )
