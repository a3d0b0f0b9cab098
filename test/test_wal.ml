(* The write-ahead log and crash recovery (lib/net/wal.ml + the
   Check.record / Check.crash harness): framing codec roundtrips,
   adversarial damaged-file decoding, group-commit batching, the
   outcome-after-steps ordering invariant, snapshot compaction, the
   snapshot-plus-tail-equals-full-log property, replay idempotence,
   and the headline kill(-9) sweep — a simulated crash at every log
   boundary, every recovery judged by every oracle. *)
open Core
open Util

let t1 = txn [ 0 ]
let t2 = txn [ 1 ]

let sample_records =
  [
    Wal.Meta
      {
        seed = 42;
        backend = "undo";
        policy = "random-step";
        inform = "eager";
        abort_prob = 0.05;
        objects = [ ("x", "(register 0)"); ("c", "(counter 3)") ];
      };
    Wal.Submit
      { req = Some "r-1"; client = "c1"; program = "(txn (access x read))" };
    Wal.Submit { req = None; client = ""; program = "(txn (access c get))" };
    Wal.Kill { txn = t2 };
    Wal.Steps 17;
    Wal.Outcome { txn = t1; outcome = Wal.Committed "(int 3)" };
    Wal.Outcome { txn = t2; outcome = Wal.Aborted None };
    Wal.Outcome { txn = t2; outcome = Wal.Aborted (Some "cycle T1->T2") };
    Wal.Sg_state
      { nodes = [| "T0"; "T1"; "T2" |]; edges = [ (1, 2); (2, 0) ] };
    Wal.Counts { submitted = 9; committed = 5; aborted = 4; vetoed = 2 };
  ]

let image_of records =
  Wal.header ~magic:Wal.wal_magic ~base_seq:0
  ^ String.concat "" (List.map Wal.encode_record records)

(* Every record variant survives encode -> frame -> scan. *)
let t_codec_roundtrip () =
  match Wal.scan ~magic:Wal.wal_magic (image_of sample_records) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "clean tail" true (s.Wal.sc_tail = Wal.Clean);
      check_int "all records" (List.length sample_records)
        (List.length s.Wal.sc_records);
      check_bool "roundtrip equality" true (s.Wal.sc_records = sample_records);
      check_int "offsets parallel records" (List.length sample_records)
        (List.length s.Wal.sc_offsets)

(* Adversarial images, table-driven: each damaged file must decode to
   the longest intact prefix with the right diagnosis — never an
   exception, never silently swallowing valid records. *)
let t_adversarial_decode () =
  let img = image_of sample_records in
  let full = List.length sample_records in
  let offsets =
    match Wal.scan ~magic:Wal.wal_magic img with
    | Ok s -> Array.of_list s.Wal.sc_offsets
    | Error e -> Alcotest.fail e
  in
  let last = offsets.(full - 1) in
  let flip pos s =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    Bytes.to_string b
  in
  let cases =
    [
      ("empty file", "", Some (0, true, 0));
      ("zero bytes of header", String.sub img 0 0, Some (0, true, 0));
      ("mid-magic cut", String.sub img 0 5, Some (0, false, 0));
      ("header-only", String.sub img 0 16, Some (0, true, 16));
      ("torn final record", String.sub img 0 (last + 9), Some (full - 1, false, last));
      ( "truncated length prefix",
        String.sub img 0 (last + 5),
        Some (full - 1, false, last) );
      ("bit-flipped checksum", flip (last + 4) img, Some (full - 1, false, last));
      ("bit-flipped payload", flip (last + 12) img, Some (full - 1, false, last));
      ("foreign magic", "GARBAGE!" ^ String.sub img 8 64, None);
      ("snapshot magic on a wal scan", Wal.header ~magic:Wal.snap_magic ~base_seq:0, None);
    ]
  in
  List.iter
    (fun (name, s, expect) ->
      match (Wal.scan ~magic:Wal.wal_magic s, expect) with
      | Error _, None -> ()
      | Error e, Some _ -> Alcotest.fail (name ^ ": unexpected refusal: " ^ e)
      | Ok _, None -> Alcotest.fail (name ^ ": foreign file accepted")
      | Ok sc, Some (records, clean, valid) ->
          check_int (name ^ ": records kept") records
            (List.length sc.Wal.sc_records);
          check_bool (name ^ ": tail cleanliness") clean
            (sc.Wal.sc_tail = Wal.Clean);
          let v =
            match sc.Wal.sc_tail with
            | Wal.Clean -> sc.Wal.sc_valid
            | Wal.Torn { valid; _ } -> valid
          in
          check_int (name ^ ": valid prefix") valid v)
    cases

(* Group commit: a writer with [fsync_batch n] syncs every [n]
   records, and [flush] settles the remainder; [fsync_interval_s]
   syncs on [tick] once the (injected) clock advances far enough. *)
let t_writer_batching () =
  let syncs = ref 0 in
  let buf = Buffer.create 256 in
  let sink =
    { Wal.write = Buffer.add_string buf; sync = (fun () -> incr syncs) }
  in
  let w = Wal.Writer.create ~fsync_batch:4 ~base_seq:0 ~on_sync:ignore sink in
  for _ = 1 to 10 do
    Wal.Writer.append w (Wal.Steps 1)
  done;
  check_int "two batch syncs after 10 appends" 2 !syncs;
  Wal.Writer.flush w;
  check_int "flush syncs the dirty remainder" 3 !syncs;
  Wal.Writer.flush w;
  check_int "clean flush does not re-sync" 3 !syncs;
  check_int "writer sync counter agrees" 3 (Wal.Writer.syncs w);
  check_int "appended" 10 (Wal.Writer.appended w);
  (* Time-based syncing with an injected clock. *)
  let now = ref 0.0 in
  let syncs2 = ref 0 in
  let sink2 =
    { Wal.write = (fun _ -> ()); sync = (fun () -> incr syncs2) }
  in
  let w2 =
    Wal.Writer.create ~fsync_batch:0 ~fsync_interval_s:0.5
      ~clock:(fun () -> !now)
      ~base_seq:0 ~on_sync:ignore sink2
  in
  Wal.Writer.append w2 (Wal.Steps 1);
  Wal.Writer.tick w2;
  check_int "interval not yet elapsed" 0 !syncs2;
  now := 0.6;
  Wal.Writer.tick w2;
  check_int "interval elapsed" 1 !syncs2;
  Wal.Writer.tick w2;
  check_int "nothing dirty, no sync" 1 !syncs2

(* The ordering invariant: outcomes noted while stepping are buffered
   and land after the covering [Steps] record, so no intact prefix
   audits state it cannot replay. *)
let t_outcome_after_steps () =
  let buf = Buffer.create 256 in
  let w =
    Wal.Writer.create ~base_seq:0 ~on_sync:ignore (Wal.buffer_sink buf)
  in
  Wal.Writer.append w
    (Wal.Submit { req = None; client = "c"; program = "p" });
  Wal.Writer.note_outcome w ~txn:t1 (Wal.Committed "(unit)");
  Wal.Writer.note_outcome w ~txn:t2 (Wal.Aborted None);
  Wal.Writer.log_steps w 5;
  match Wal.scan ~magic:Wal.wal_magic (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "submit, steps, then both outcomes in noted order" true
        (match s.Wal.sc_records with
        | [
            Wal.Submit _;
            Wal.Steps 5;
            Wal.Outcome { txn = a; _ };
            Wal.Outcome { txn = b; _ };
          ] ->
            Txn_id.equal a t1 && Txn_id.equal b t2
        | _ -> false)

(* [compact] merges step runs, drops audit-only records, keeps the
   replay-relevant order, and is idempotent. *)
let t_compact () =
  let submit = Wal.Submit { req = None; client = "c"; program = "p" } in
  let events =
    [
      List.hd sample_records;
      submit;
      Wal.Steps 3;
      Wal.Steps 4;
      Wal.Outcome { txn = t1; outcome = Wal.Aborted None };
      Wal.Steps 2;
      Wal.Kill { txn = t1 };
      Wal.Steps 0;
      Wal.Steps 1;
    ]
  in
  let c = Wal.compact events in
  check_bool "merged and pruned" true
    (c = [ submit; Wal.Steps 9; Wal.Kill { txn = t1 }; Wal.Steps 1 ]);
  check_bool "idempotent" true (Wal.compact c = c)

(* [Closure.push] is [compact] one record at a time: same result, and
   the retained list stays bounded by the replay events however many
   idle [Steps] cuts are pushed — the property that keeps a live
   server's between-snapshot memory flat. *)
let t_closure_incremental () =
  let submit = Wal.Submit { req = None; client = "c"; program = "p" } in
  let events =
    [
      List.hd sample_records;
      submit;
      Wal.Steps 3;
      Wal.Steps 4;
      Wal.Outcome { txn = t1; outcome = Wal.Aborted None };
      Wal.Steps 2;
      Wal.Kill { txn = t1 };
      Wal.Steps 0;
      Wal.Steps 1;
    ]
  in
  let c = Wal.Closure.of_records events in
  check_bool "of_records = compact" true
    (Wal.Closure.records c = Wal.compact events);
  check_int "length" (List.length (Wal.compact events)) (Wal.Closure.length c);
  check_int "events counted" 2 (Wal.Closure.events c);
  (* An idle server cutting its log every turn: 100k Steps pushes with
     a submission every 10k must not grow the closure past the bound. *)
  let c = Wal.Closure.create () in
  for i = 1 to 100_000 do
    if i mod 10_000 = 0 then Wal.Closure.push c submit;
    Wal.Closure.push c (Wal.Steps 1)
  done;
  check_int "10 retained events" 10 (Wal.Closure.events c);
  check_bool "bounded by 2e+1" true
    (Wal.Closure.length c <= (2 * Wal.Closure.events c) + 1);
  check_bool "no adjacent Steps" true
    (let rec ok = function
       | Wal.Steps _ :: Wal.Steps _ :: _ -> false
       | _ :: rest -> ok rest
       | [] -> true
     in
     ok (Wal.Closure.records c))

(* ----- recorded serves and recovery ----- *)

let backends_cycle = [| Check.Undo; Check.Moss; Check.Commlock; Check.Mvts |]

let scenario_for i =
  let backend = backends_cycle.(i mod Array.length backends_cycle) in
  let sc = Check.gen_scenario ~shape:Check.Default backend (Rng.create (1000 + i)) in
  (backend, sc)

(* Replay a full log image into a fresh engine; returns the engine. *)
let recover_full backend (sc : Check.scenario) img =
  let s =
    match Wal.scan ~magic:Wal.wal_magic img with
    | Ok s -> s
    | Error e -> Alcotest.fail ("scan: " ^ e)
  in
  check_bool "recorded log has a clean tail" true (s.Wal.sc_tail = Wal.Clean);
  let rp =
    match
      Wal.replayable_of_records ~base_seq:s.Wal.sc_base_seq ~skip_below:0
        s.Wal.sc_records
    with
    | Ok rp -> rp
    | Error e -> Alcotest.fail ("replayable: " ^ e)
  in
  let eng =
    Engine.create ~policy:sc.Check.policy ~inform_policy:sc.Check.inform_policy
      ~abort_prob:sc.Check.abort_prob ~seed:sc.Check.sched_seed
      sc.Check.objects (Check.factory_of backend)
  in
  (match Engine.recover eng rp.Wal.rp_events with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("recover: " ^ e));
  (match Wal.check_outcomes (Engine.state eng) rp.Wal.rp_outcomes with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("outcomes: " ^ e));
  eng

let sg_of eng = Monitor.graph (Admission.monitor (Engine.admission eng))

let engines_agree name a b =
  check_int (name ^ ": step calls") (Engine.step_calls a) (Engine.step_calls b);
  check_int (name ^ ": submitted") (Engine.submitted a) (Engine.submitted b);
  check_int (name ^ ": committed") (Engine.committed_top a)
    (Engine.committed_top b);
  check_int (name ^ ": aborted") (Engine.aborted_top a) (Engine.aborted_top b);
  check_int (name ^ ": vetoed") (Engine.vetoed a) (Engine.vetoed b);
  check_bool (name ^ ": forests") true
    (List.map Program_io.program_to_string (Engine.forest a)
    = List.map Program_io.program_to_string (Engine.forest b));
  match Wal.check_sg_state (Wal.sg_state_of_graph (sg_of a)) (sg_of b) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": monitor graphs: " ^ e)

(* The replay property, 200 seeded serve runs: a fresh engine replayed
   from the log reproduces the recorded run's counters exactly, every
   audited outcome checks, and replaying the same log twice yields
   agreeing engines (idempotence).  When a snapshot was taken,
   snapshot + tail replay must agree with the full-log replay. *)
let t_snapshot_tail_equals_full () =
  let snapshots = ref 0 in
  for i = 0 to 199 do
    let backend, sc = scenario_for i in
    let rc =
      Check.record ~drop_prob:0.1 ~snapshot_at:6 ~seed:(3000 + i) backend sc
    in
    let eng = recover_full backend sc rc.Check.rc_wal in
    let eng2 = recover_full backend sc rc.Check.rc_wal in
    engines_agree "replay idempotence" eng eng2;
    check_int "replayed submissions" rc.Check.rc_report.Check.s_submitted
      (Engine.submitted eng);
    check_int "replayed commits" rc.Check.rc_report.Check.s_committed
      (Engine.committed_top eng);
    check_int "replayed aborts" rc.Check.rc_report.Check.s_aborted
      (Engine.aborted_top eng);
    match rc.Check.rc_snapshot with
    | None -> ()
    | Some simg -> (
        incr snapshots;
        let sn =
          match Wal.decode_snapshot simg with
          | Ok sn -> sn
          | Error e -> Alcotest.fail ("snapshot: " ^ e)
        in
        let rp_snap =
          match
            Wal.replayable_of_records ~base_seq:0 ~skip_below:0
              sn.Wal.sn_events
          with
          | Ok rp -> rp
          | Error e -> Alcotest.fail ("snapshot events: " ^ e)
        in
        let eng3 =
          Engine.create ~policy:sc.Check.policy
            ~inform_policy:sc.Check.inform_policy
            ~abort_prob:sc.Check.abort_prob ~seed:sc.Check.sched_seed
            sc.Check.objects (Check.factory_of backend)
        in
        (match Engine.recover eng3 rp_snap.Wal.rp_events with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("snapshot replay: " ^ e));
        (* The snapshot's materialized SG and counters must match the
           state its compacted events replay to. *)
        (match Wal.check_sg_state sn.Wal.sn_sg (sg_of eng3) with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("snapshot sg: " ^ e));
        (match sn.Wal.sn_counts with
        | Wal.Counts { submitted; committed; aborted; vetoed } ->
            check_int "snapshot submitted" submitted (Engine.submitted eng3);
            check_int "snapshot committed" committed
              (Engine.committed_top eng3);
            check_int "snapshot aborted" aborted (Engine.aborted_top eng3);
            check_int "snapshot vetoed" vetoed (Engine.vetoed eng3)
        | _ -> Alcotest.fail "snapshot missing counts");
        let s = Result.get_ok (Wal.scan ~magic:Wal.wal_magic rc.Check.rc_wal) in
        let rp_tail =
          match
            Wal.replayable_of_records ~base_seq:s.Wal.sc_base_seq
              ~skip_below:sn.Wal.sn_next_seq s.Wal.sc_records
          with
          | Ok rp -> rp
          | Error e -> Alcotest.fail ("tail events: " ^ e)
        in
        (match Engine.replay eng3 rp_tail.Wal.rp_events with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("tail replay: " ^ e));
        (match Wal.check_outcomes (Engine.state eng3) rp_tail.Wal.rp_outcomes with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("tail outcomes: " ^ e));
        engines_agree "snapshot + tail vs full log" eng3 eng)
  done;
  check_bool "snapshot path exercised" true (!snapshots > 50)

(* [record] is [serve] plus the log: same loop, same RNG draws, so
   the report must be identical — and a fresh engine cannot [recover]
   twice. *)
let t_record_matches_serve () =
  let backend, sc = scenario_for 3 in
  let rc = Check.record ~drop_prob:0.1 ~seed:77 backend sc in
  let sr = Check.serve ~drop_prob:0.1 ~seed:77 backend sc in
  check_int "submitted" sr.Check.s_submitted rc.Check.rc_report.Check.s_submitted;
  check_int "committed" sr.Check.s_committed rc.Check.rc_report.Check.s_committed;
  check_int "dropped" sr.Check.s_dropped rc.Check.rc_report.Check.s_dropped;
  check_bool "traces equal" true
    (Trace.length sr.Check.s_trace
     = Trace.length rc.Check.rc_report.Check.s_trace);
  let eng = recover_full backend sc rc.Check.rc_wal in
  check_bool "second recover on a used engine is refused" true
    (match Engine.recover eng [] with Error _ -> true | Ok _ -> false)

(* Memory pin for the serving loop's replay closure: across long
   recorded runs the in-memory closure must stay within
   [2 * (submits + kills) + 1] — growth tracks replay events, never
   raw appended records (outcomes, idle step cuts). *)
let t_closure_bounded_on_record () =
  for i = 0 to 19 do
    let backend, sc = scenario_for i in
    let rc = Check.record ~drop_prob:0.2 ~seed:(500 + i) backend sc in
    let records =
      match Wal.scan ~magic:Wal.wal_magic rc.Check.rc_wal with
      | Ok s -> s.Wal.sc_records
      | Error e -> Alcotest.fail ("scan: " ^ e)
    in
    let events =
      List.length
        (List.filter
           (function Wal.Submit _ | Wal.Kill _ -> true | _ -> false)
           records)
    in
    check_bool "closure within 2e+1" true
      (rc.Check.rc_closure_len <= (2 * events) + 1);
    check_bool "closure is the compacted log" true
      (rc.Check.rc_closure_len = List.length (Wal.compact records))
  done

(* The headline sweep: simulated kill(-9) at every log boundary (plus
   torn and bit-flipped variants) across 200 seeded serve runs, every
   recovery re-judged by every oracle.  Zero failures expected on
   verified backends. *)
let t_crash_sweep () =
  let boundaries = ref 0 and recoveries = ref 0 and outcomes = ref 0 in
  for i = 0 to 199 do
    let backend, sc = scenario_for i in
    let rep = Check.crash ~snapshot_at:6 backend sc in
    (match rep.Check.c_failure with
    | None -> ()
    | Some (where, f) ->
        Alcotest.fail
          (Format.asprintf "seed %d (%s): %s: %a" i
             (Check.backend_name backend) where Check.pp_failure f));
    boundaries := !boundaries + rep.Check.c_boundaries;
    recoveries := !recoveries + rep.Check.c_recoveries;
    outcomes := !outcomes + rep.Check.c_outcomes_checked
  done;
  check_bool "swept many boundaries" true (!boundaries > 2000);
  check_bool "recovered more images than boundaries" true
    (!recoveries > !boundaries);
  check_bool "checked audited outcomes" true (!outcomes > 1000)

(* Determinism: the same crash sweep twice yields the same report. *)
let t_crash_deterministic () =
  let backend, sc = scenario_for 7 in
  let a = Check.crash ~snapshot_at:6 backend sc in
  let b = Check.crash ~snapshot_at:6 backend sc in
  check_int "boundaries" a.Check.c_boundaries b.Check.c_boundaries;
  check_int "recoveries" a.Check.c_recoveries b.Check.c_recoveries;
  check_int "outcomes" a.Check.c_outcomes_checked b.Check.c_outcomes_checked;
  check_bool "failures" true (a.Check.c_failure = b.Check.c_failure)

(* Negative control: the crash harness still catches broken backends —
   the pre-crash run fails an oracle and the sweep reports it. *)
let t_crash_catches_broken () =
  let r = Check.crash_campaign Check.No_control ~seed:5 ~runs:20 in
  check_bool "no-control caught" true (r.Check.failures <> []);
  match r.Check.failures with
  | (_, sc, f) :: _ ->
      check_bool "tagged" true
        (List.mem (Check.failure_tag f)
           [ "durability"; "sg-cycle"; "returns"; "not-correct";
             "differential"; "ill-formed" ]);
      (* Crash bundles round-trip with the serving seed. *)
      let text =
        Bundle.to_string ~failure:f
          ~crash_seed:(Check.crash_seed_of sc)
          Check.No_control sc
      in
      (match Bundle.of_string text with
      | Error e -> Alcotest.fail e
      | Ok b ->
          check_bool "crash seed preserved" true
            (b.Bundle.crash_seed = Some (Check.crash_seed_of sc));
          check_int "sched seed preserved" sc.Check.sched_seed
            b.Bundle.scenario.Check.sched_seed)
  | [] -> ()

(* Shrinking a crash failure: ddmin over the crash sweep converges to
   a smaller scenario that still fails, deterministically. *)
let t_crash_shrinks () =
  let r =
    Check.crash_campaign ~stop_at_first:true Check.No_control ~seed:5 ~runs:20
  in
  match r.Check.failures with
  | [] -> Alcotest.fail "expected a crash-campaign failure to shrink"
  | (_, sc, _) :: _ -> (
      match Shrink.minimize_crash ~max_attempts:60 Check.No_control sc with
      | None -> Alcotest.fail "shrinker lost the failure"
      | Some s ->
          check_bool "still failing after shrink" true
            (Check.failure_tag s.Shrink.failure <> "");
          check_bool "no bigger than the original" true
            (Shrink.n_accesses s.Shrink.scenario.Check.forest
            <= Shrink.n_accesses sc.Check.forest);
          check_bool "deterministic" true s.Shrink.deterministic)

(* A recorded run that actually took a snapshot, for the torn-write
   cases below. *)
let run_with_snapshot () =
  let rec find i =
    if i > 40 then Alcotest.fail "no run produced a snapshot"
    else
      let backend, sc = scenario_for i in
      let rc =
        Check.record ~drop_prob:0.1 ~snapshot_at:6 ~seed:(3000 + i) backend sc
      in
      match rc.Check.rc_snapshot with
      | Some simg -> (backend, sc, rc, simg)
      | None -> find (i + 1)
  in
  find 0

(* Torn writes on the snapshot path: every strict truncation of the
   snapshot image — header cuts, mid-record cuts, a one-byte-short
   image — must be refused by the decoder, never half-accepted. *)
let t_torn_snapshot_refused () =
  let _, _, _, simg = run_with_snapshot () in
  let slen = String.length simg in
  check_bool "snapshot image non-trivial" true (slen > 16);
  List.iter
    (fun cut ->
      if cut >= 0 && cut < slen then
        match Wal.decode_snapshot (String.sub simg 0 cut) with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "torn snapshot accepted at cut %d of %d" cut slen)
    [ 0; 8; 16; slen / 4; slen / 2; slen - 1 ];
  match Wal.decode_snapshot simg with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("intact snapshot refused: " ^ e)

(* A bit-flipped snapshot is refused, and recovery falls back to the
   full log: the replayed engine reproduces the recorded counters as
   if the snapshot had never existed. *)
let t_flipped_snapshot_falls_back () =
  let backend, sc, rc, simg = run_with_snapshot () in
  let flip pos s =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    Bytes.to_string b
  in
  let slen = String.length simg in
  List.iter
    (fun pos ->
      match Wal.decode_snapshot (flip pos simg) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flipped snapshot accepted at byte %d" pos)
    [ 0; slen / 2; slen - 1 ];
  let eng = recover_full backend sc rc.Check.rc_wal in
  check_int "fallback submissions" rc.Check.rc_report.Check.s_submitted
    (Engine.submitted eng);
  check_int "fallback commits" rc.Check.rc_report.Check.s_committed
    (Engine.committed_top eng);
  check_int "fallback aborts" rc.Check.rc_report.Check.s_aborted
    (Engine.aborted_top eng)

let suite =
  ( "wal",
    [
      Alcotest.test_case "codec roundtrip" `Quick t_codec_roundtrip;
      Alcotest.test_case "adversarial decode" `Quick t_adversarial_decode;
      Alcotest.test_case "writer batching" `Quick t_writer_batching;
      Alcotest.test_case "outcome after steps" `Quick t_outcome_after_steps;
      Alcotest.test_case "compact" `Quick t_compact;
      Alcotest.test_case "closure incremental = compact" `Quick
        t_closure_incremental;
      Alcotest.test_case "closure bounded on record (20 seeds)" `Quick
        t_closure_bounded_on_record;
      Alcotest.test_case "snapshot + tail = full log (200 seeds)" `Quick
        t_snapshot_tail_equals_full;
      Alcotest.test_case "record matches serve" `Quick t_record_matches_serve;
      Alcotest.test_case "crash sweep, every boundary (200 seeds)" `Quick
        t_crash_sweep;
      Alcotest.test_case "crash sweep deterministic" `Quick
        t_crash_deterministic;
      Alcotest.test_case "crash catches broken backends" `Quick
        t_crash_catches_broken;
      Alcotest.test_case "crash failures shrink" `Quick t_crash_shrinks;
      Alcotest.test_case "torn snapshots refused" `Quick
        t_torn_snapshot_refused;
      Alcotest.test_case "flipped snapshot falls back to full log" `Quick
        t_flipped_snapshot_falls_back;
    ] )
