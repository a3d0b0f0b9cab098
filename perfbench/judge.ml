(* Offline judgement of a durable run's log: replay it into a fresh
   engine configured as the server was, check every audited outcome
   against the replayed state (Wal.check_outcomes), and judge the
   replayed trace with the Theorem 8/19 checker. *)

open Core
module Json = Obs_json

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let engine_for (w : Workload.t) ~seed =
  Engine.create ~max_steps:100_000_000 ~seed w.Workload.objects (Workload.factory ())

(* [Ok (replayed engine, outcomes checked)] or the first error. *)
let replay w ~seed ~wal =
  match Wal.scan ~magic:Wal.wal_magic (read_file wal) with
  | Error e -> Error ("log scan: " ^ e)
  | Ok sc when sc.Wal.sc_tail <> Wal.Clean -> Error "log has a torn tail"
  | Ok sc -> (
      match
        Wal.replayable_of_records ~base_seq:sc.Wal.sc_base_seq ~skip_below:0
          sc.Wal.sc_records
      with
      | Error e -> Error ("log decode: " ^ e)
      | Ok rp -> (
          let eng = engine_for w ~seed in
          match Engine.recover eng rp.Wal.rp_events with
          | Error e -> Error e
          | Ok _ -> (
              match Wal.check_outcomes (Engine.state eng) rp.Wal.rp_outcomes with
              | Error e -> Error ("outcome check: " ^ e)
              | Ok n -> Ok (eng, n))))

let run ~workload ~seed ~wal =
  let w = Option.get (Workload.find workload) in
  let t0 = Unix.gettimeofday () in
  let doc =
    match replay w ~seed ~wal with
    | Error e -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str e) ]
    | Ok (eng, n) ->
        let t1 = Unix.gettimeofday () in
        let r = Engine.finish eng in
        let v = Checker.check (Engine.schema eng) r.Runtime.trace in
        let t2 = Unix.gettimeofday () in
        Json.Obj
          [
            ("ok", Json.Bool v.Checker.serially_correct);
            ( "error",
              Json.Str
                (if v.Checker.serially_correct then ""
                 else "replayed trace is not serially correct") );
            ("outcomes_checked", Json.Int n);
            ("submitted", Json.Int (Engine.submitted eng));
            ("actions", Json.Int r.Runtime.stats.Runtime.actions);
            ("sg_nodes", Json.Int v.Checker.sg_nodes);
            ("sg_edges", Json.Int v.Checker.sg_edges);
            ("replay_ms", Json.Int (int_of_float ((t1 -. t0) *. 1e3)));
            ("check_ms", Json.Int (int_of_float ((t2 -. t1) *. 1e3)));
          ]
  in
  print_endline (Json.to_string doc)
