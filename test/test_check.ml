(* The property-based checking engine (lib/check): oracles on seed
   scenarios, campaign determinism, detection of the broken subjects,
   shrinking to small deterministic counterexamples, bundle roundtrip. *)
open Core
open Util

(* Scenario generation is a pure function of the RNG: same seed, same
   scenario (modulo closures — compare the printable projection). *)
let t_gen_deterministic () =
  let render sc =
    Format.asprintf "%d|%d|%s"
      sc.Check.sched_seed
      (Shrink.n_accesses sc.Check.forest)
      (String.concat ","
         (List.map (fun (x, _) -> Obj_id.name x) sc.Check.objects))
  in
  List.iter
    (fun backend ->
      let sc1 = Check.gen_scenario backend (Rng.create 42) in
      let sc2 = Check.gen_scenario backend (Rng.create 42) in
      check_bool "same scenario from same seed" true (render sc1 = render sc2))
    (Check.correct_backends @ Check.broken_backends)

(* Small campaigns over every verified backend must report zero oracle
   failures, and replaying any generated scenario is deterministic. *)
let t_correct_backends_pass () =
  List.iter
    (fun backend ->
      let r = Check.campaign backend ~seed:11 ~runs:8 in
      Alcotest.(check int)
        (Check.backend_name backend ^ " failures")
        0
        (List.length r.Check.failures);
      check_int (Check.backend_name backend ^ " runs") 8 r.Check.runs)
    Check.correct_backends

(* Oracle agreement on curated workloads: run the banking and queue
   scenarios under a verified protocol and judge them — the checker
   and the differential oracle must both accept. *)
let t_oracles_on_seed_scenarios () =
  List.iter
    (fun (forest, schema) ->
      let objects =
        List.map
          (fun x -> (x, schema.Schema.dtype_of x))
          schema.Schema.objects
      in
      let sc =
        {
          Check.forest;
          objects;
          sched_seed = 5;
          policy = Runtime.Random_step;
          inform_policy = Runtime.Eager;
          abort_prob = 0.0;
          family = None;
        }
      in
      let o = Check.run_scenario Check.Undo sc in
      check_bool "curated scenario passes all oracles" true
        (o.Check.failure = None))
    [
      Scenario.banking ~n_accounts:3 ~n_transfers:5 ~seed:2;
      Scenario.queue_producers_consumers ~n_producers:2 ~n_consumers:2 ~seed:2;
    ]

(* Every broken subject is detected within a modest campaign. *)
let t_broken_detected () =
  List.iter
    (fun backend ->
      let r = Check.campaign backend ~seed:3 ~runs:100 in
      check_bool
        (Check.backend_name backend ^ " caught")
        true
        (r.Check.failures <> []))
    Check.broken_backends

let first_failure backend ~seed ~runs =
  let r = Check.campaign backend ~seed ~runs in
  match r.Check.failures with
  | (_, sc, _) :: _ -> sc
  | [] -> Alcotest.fail (Check.backend_name backend ^ ": no failure found")

(* A no-control violation shrinks to a tiny counterexample that still
   fails, deterministically. *)
let t_shrink_small () =
  let sc = first_failure Check.No_control ~seed:3 ~runs:100 in
  match Shrink.minimize Check.No_control sc with
  | None -> Alcotest.fail "minimize lost the failure"
  | Some m ->
      check_bool "minimal counterexample has at most 6 accesses" true
        (Shrink.n_accesses m.Shrink.scenario.Check.forest <= 6);
      check_bool "determinism re-verified" true m.Shrink.deterministic;
      (* The minimized scenario still fails on a fresh run. *)
      let o = Check.run_scenario Check.No_control m.Shrink.scenario in
      check_bool "still failing" true (o.Check.failure <> None)

(* Shrinking twice from the same failing scenario yields the same
   minimal counterexample (the whole pipeline is seed-deterministic). *)
let t_shrink_deterministic () =
  let sc = first_failure Check.No_control ~seed:3 ~runs:100 in
  match
    (Shrink.minimize Check.No_control sc, Shrink.minimize Check.No_control sc)
  with
  | Some m1, Some m2 ->
      check_bool "same size" true
        (Shrink.n_accesses m1.Shrink.scenario.Check.forest
        = Shrink.n_accesses m2.Shrink.scenario.Check.forest);
      check_bool "same failure" true (m1.Shrink.failure = m2.Shrink.failure);
      check_bool "same rendered bundle" true
        (Bundle.to_string Check.No_control m1.Shrink.scenario
        = Bundle.to_string Check.No_control m2.Shrink.scenario)
  | _ -> Alcotest.fail "minimize lost the failure"

(* Bundles roundtrip: save a shrunk counterexample, load it back, and
   the replayed run reproduces the same failure tag. *)
let t_bundle_roundtrip () =
  let sc = first_failure Check.No_control ~seed:3 ~runs:100 in
  let m =
    match Shrink.minimize Check.No_control sc with
    | Some m -> m
    | None -> Alcotest.fail "minimize lost the failure"
  in
  let s =
    Bundle.to_string ~failure:m.Shrink.failure Check.No_control
      m.Shrink.scenario
  in
  match Bundle.of_string s with
  | Error e -> Alcotest.fail e
  | Ok b ->
      check_bool "backend survives" true (b.Bundle.backend = Check.No_control);
      check_bool "failure tag recorded" true
        (b.Bundle.failure_tag = Some (Check.failure_tag m.Shrink.failure));
      check_int "sched seed survives" m.Shrink.scenario.Check.sched_seed
        b.Bundle.scenario.Check.sched_seed;
      let o = Check.run_scenario b.Bundle.backend b.Bundle.scenario in
      (match o.Check.failure with
      | None -> Alcotest.fail "replayed bundle no longer fails"
      | Some f ->
          check_bool "same failure tag on replay" true
            (Check.failure_tag f = Check.failure_tag m.Shrink.failure))

(* Oracle equivalence: on generated scenarios — verified and broken
   backends alike — the incremental batch checker, the online
   incremental monitor, and the from-scratch DFS reference must return
   the same SG-acyclicity verdict, and running the monitor twice over
   the same trace must report identical alarm counts.  (Replication is
   excluded: its physical schema differs from the scenario's logical
   one.) *)
let t_sg_oracle_equivalence () =
  List.iter
    (fun backend ->
      let master = Rng.create 19 in
      for _ = 1 to 5 do
        let rng = Rng.split master in
        let sc = Check.gen_scenario backend rng in
        let o = Check.run_scenario backend sc in
        if not o.Check.truncated then begin
          let schema = Check.schema_of_scenario sc in
          let a = Check.sg_agreement schema o.Check.trace in
          check_bool
            (Check.backend_name backend ^ " verdicts agree")
            true (Check.sg_agrees a);
          let a' = Check.sg_agreement schema o.Check.trace in
          check_bool
            (Check.backend_name backend ^ " alarm counts deterministic")
            true (a = a')
        end
      done)
    [
      Check.Moss;
      Check.Commlock;
      Check.Undo;
      Check.Mvts;
      Check.No_control;
      Check.Unsafe_read;
      Check.No_undo;
    ]

(* On a scenario the cycle-prone broken subject fails, the three
   detectors must also agree on the *cyclic* side: replay the first
   sg-cycle failure's trace and require a unanimous rejection. *)
let t_sg_oracle_equivalence_on_cycle () =
  let r = Check.campaign Check.No_control ~seed:3 ~runs:100 ~stop_at_first:false in
  let cyclic =
    List.filter_map
      (fun (_, sc, f) ->
        match f with Check.Sg_cycle _ -> Some sc | _ -> None)
      r.Check.failures
  in
  check_bool "campaign produced an sg-cycle failure" true (cyclic <> []);
  List.iter
    (fun sc ->
      let o = Check.run_scenario Check.No_control sc in
      let a = Check.sg_agreement (Check.schema_of_scenario sc) o.Check.trace in
      check_bool "all three detectors reject" true
        (Check.sg_agrees a && not a.Check.checker_acyclic);
      check_bool "monitor alarmed with a cycle" true (a.Check.cycle_alarms > 0))
    cyclic

(* Campaign outcomes flow into the Nt_obs metrics registry. *)
let t_campaign_metrics () =
  let obs = Obs.create () in
  let r = Check.campaign ~obs Check.Undo ~seed:11 ~runs:5 in
  let get name = Metrics.counter_value (Metrics.counter (Obs.metrics obs) name) in
  check_int "check.runs counted" r.Check.runs (get "check.runs");
  check_int "check.pass counted" r.Check.passed (get "check.pass");
  check_int "no check.fail" 0 (get "check.fail");
  let obs_fail = Obs.create () in
  let rf = Check.campaign ~obs:obs_fail Check.No_control ~seed:3 ~runs:100 in
  check_bool "failure campaign failed" true (rf.Check.failures <> []);
  let getf name = Metrics.counter_value (Metrics.counter (Obs.metrics obs_fail) name) in
  check_int "check.fail counted" (List.length rf.Check.failures)
    (getf "check.fail")

(* ----- backend/grammar name registries and the weak adversaries ----- *)

(* The name registry is total and involutive: every backend has a
   unique name that parses back to it, and the unknown-name diagnostic
   lists every valid name — so the CLI error can never drift out of
   sync with the backend list. *)
let t_backend_names_sync () =
  check_int "one name per backend" (List.length Check.all_backends)
    (List.length Check.backend_names);
  check_int "names unique"
    (List.length (List.sort_uniq compare Check.backend_names))
    (List.length Check.backend_names);
  List.iter
    (fun b ->
      match Check.backend_of_name (Check.backend_name b) with
      | Some b' ->
          check_bool (Check.backend_name b ^ " roundtrips") true (b = b')
      | None ->
          Alcotest.fail (Check.backend_name b ^ " does not parse back"))
    Check.all_backends;
  check_bool "unknown name rejected" true
    (Check.backend_of_name "bogus" = None);
  let msg = Check.unknown_backend_message "bogus" in
  check_bool "message names the offender" true
    (Astring.String.is_infix ~affix:"bogus" msg);
  List.iter
    (fun name ->
      check_bool ("message lists " ^ name) true
        (Astring.String.is_infix ~affix:name msg))
    Check.backend_names

(* Same for the grammar registry. *)
let t_grammar_names_sync () =
  List.iter
    (fun g ->
      match Check.grammar_of_name (Check.grammar_name g) with
      | Some g' ->
          check_bool (Check.grammar_name g ^ " roundtrips") true (g = g')
      | None -> Alcotest.fail (Check.grammar_name g ^ " does not parse back"))
    [ Check.Rw; Check.Counters; Check.Mixed; Check.Weighted; Check.Smallbank ];
  check_bool "unknown grammar rejected" true
    (Check.grammar_of_name "bogus" = None)

(* [grammar_allowed] is exactly the rw-only restriction: the
   register-encoded grammars pass everywhere, the datatype-drawing
   ones only where the backend is not register-only — and the
   conflict diagnostic names the offending pair plus every
   register-only backend, so the CLI refusal explains itself. *)
let t_grammar_allowed () =
  List.iter
    (fun b ->
      List.iter
        (fun g ->
          let expect =
            match g with
            | Check.Rw | Check.Smallbank -> true
            | _ -> not (Check.rw_only b)
          in
          check_bool
            (Check.backend_name b ^ "/" ^ Check.grammar_name g)
            expect
            (Check.grammar_allowed b g))
        [ Check.Rw; Check.Counters; Check.Mixed; Check.Weighted;
          Check.Smallbank ])
    Check.all_backends;
  let msg = Check.grammar_conflict_message Check.Moss Check.Counters in
  check_bool "message names the grammar" true
    (Astring.String.is_infix ~affix:"counters" msg);
  check_bool "message names the backend" true
    (Astring.String.is_infix ~affix:"moss" msg);
  List.iter
    (fun b ->
      if Check.rw_only b then
        check_bool ("message lists " ^ Check.backend_name b) true
          (Astring.String.is_infix ~affix:(Check.backend_name b) msg))
    Check.all_backends;
  check_bool "message offers the register-only grammars" true
    (Astring.String.is_infix ~affix:"smallbank" msg)

(* The weak-isolation adversaries under the contended SmallBank
   grammar: detected, shrunk to a replayable counterexample, and the
   bundle reproduces the same failure tag — the full pipeline the
   nightly fuzz job relies on. *)
let t_weak_backends_shrink_and_replay () =
  List.iter
    (fun backend ->
      let r =
        Check.campaign ~grammar:Check.Smallbank backend ~seed:3 ~runs:40
          ~stop_at_first:true
      in
      match r.Check.failures with
      | [] ->
          Alcotest.fail (Check.backend_name backend ^ ": not detected")
      | (_, sc, f) :: _ -> (
          check_bool "failure scenario tagged with its family" true
            (sc.Check.family = Some "smallbank");
          match Shrink.minimize backend sc with
          | None ->
              Alcotest.fail (Check.backend_name backend ^ ": shrink lost it")
          | Some m ->
              let text =
                Bundle.to_string ~failure:m.Shrink.failure backend
                  m.Shrink.scenario
              in
              (match Bundle.of_string text with
              | Error e -> Alcotest.fail e
              | Ok b -> (
                  check_bool "bundle backend survives" true
                    (b.Bundle.backend = backend);
                  check_bool "bundle family survives" true
                    (b.Bundle.scenario.Check.family
                    = m.Shrink.scenario.Check.family);
                  let o = Check.run_scenario b.Bundle.backend b.Bundle.scenario in
                  match o.Check.failure with
                  | None -> Alcotest.fail "replayed bundle no longer fails"
                  | Some f' ->
                      check_bool "same failure tag on replay" true
                        (Check.failure_tag f' = Check.failure_tag m.Shrink.failure)));
              ignore f))
    [ Check.Causal_only; Check.Prefix_consistent; Check.Snapshot_read ]

(* Scenario generation stamps the workload family, and it survives the
   bundle text format even without a failure. *)
let t_family_recorded_and_preserved () =
  List.iter
    (fun (grammar, expect) ->
      let sc =
        Check.gen_scenario ~grammar Check.Undo (Rng.create 8)
      in
      check_bool (expect ^ " recorded") true (sc.Check.family = Some expect);
      match Bundle.of_string (Bundle.to_string Check.Undo sc) with
      | Error e -> Alcotest.fail e
      | Ok b ->
          check_bool (expect ^ " survives the bundle") true
            (b.Bundle.scenario.Check.family = Some expect))
    [ (Check.Rw, "rw"); (Check.Smallbank, "smallbank") ]

(* The essn, lemma and monitor failure classes have stable tags for
   bundles and logs. *)
let t_essn_failure_tag () =
  List.iter
    (fun (tag, f) ->
      Alcotest.(check string) (tag ^ " tag") tag (Check.failure_tag f))
    [
      ("essn", Check.Essn_rejected "stale read");
      ("lemma", Check.Lemma_violated "Lemma 9 at x");
      ("monitor", Check.Monitor_alarm "event 3 closed a cycle");
    ]

(* Negative control for the lemma oracle: two unrelated writers of [x]
   both respond before either commits.  The behavior is well-formed,
   serially correct (either order explains two blind writes), its
   final state is the serial one and the online monitor stays silent —
   yet it is no [M1_X] schedule: Moss grants the second write lock only
   after the first holder's lock reaches a common ancestor. *)
let t_lemma_negative_control () =
  let t1 = txn [ 0 ] and t2 = txn [ 1 ] in
  let forest =
    [
      Program.access x0 (Datatype.Write (Value.Int 1));
      Program.access x0 (Datatype.Write (Value.Int 2));
    ]
  in
  let schema =
    Program.schema_of ~objects:[ (x0, Register.make ()) ] forest
  in
  let trace =
    trace_of
      [
        open_txn t1;
        open_txn t2;
        [ Action.Request_commit (t1, Value.Ok);
          Action.Request_commit (t2, Value.Ok) ];
        [ Action.Commit t1; Action.Report_commit (t1, Value.Ok) ];
        [ Action.Commit t2; Action.Report_commit (t2, Value.Ok) ];
      ]
  in
  check_bool "well-formed" true
    (Simple_db.is_well_formed schema.Schema.sys trace);
  let v = Checker.check schema trace in
  check_bool "appropriate, acyclic, serially correct" true
    (v.Checker.appropriate && v.Checker.acyclic && v.Checker.serially_correct);
  check_bool "final state is the serial one" true
    (List.for_all
       (fun (x, s) -> Obj_id.equal x x0 && Value.equal s (Value.Int 2))
       (Serial_exec.final_states schema trace));
  let a = Check.sg_agreement schema trace in
  check_bool "monitor silent" true
    (Check.sg_agrees a && a.Check.cycle_alarms = 0
    && a.Check.inappropriate_alarms = 0);
  List.iter
    (fun backend ->
      match Check.lemmas backend schema trace with
      | Some f ->
          Alcotest.(check string)
            (Check.backend_name backend ^ " fails with tag lemma")
            "lemma" (Check.failure_tag f)
      | None ->
          Alcotest.failf "%s: lemma oracle accepted two overlapping writers"
            (Check.backend_name backend))
    [ Check.Moss; Check.Undo ];
  check_bool "no lemma claim for commlock" true
    (Check.lemmas Check.Commlock schema trace = None)

(* The weak adversaries only claim to support read/write registers;
   the generator must respect that whatever the requested grammar. *)
let t_weak_backends_register_only () =
  List.iter
    (fun backend ->
      let master = Rng.create 51 in
      for _ = 1 to 5 do
        let sc = Check.gen_scenario backend (Rng.split master) in
        List.iter
          (fun (_, dt) ->
            Alcotest.(check string) "register objects only" "register"
              dt.Datatype.dt_name)
          sc.Check.objects
      done)
    [ Check.Causal_only; Check.Prefix_consistent; Check.Snapshot_read ]

let suite =
  ( "check",
    [
      Alcotest.test_case "scenario generation deterministic" `Quick
        t_gen_deterministic;
      Alcotest.test_case "verified backends pass campaigns" `Slow
        t_correct_backends_pass;
      Alcotest.test_case "oracles accept curated scenarios" `Quick
        t_oracles_on_seed_scenarios;
      Alcotest.test_case "broken subjects detected" `Quick t_broken_detected;
      Alcotest.test_case "shrinks to <= 6 accesses" `Quick t_shrink_small;
      Alcotest.test_case "shrinking is deterministic" `Quick
        t_shrink_deterministic;
      Alcotest.test_case "bundle roundtrip" `Quick t_bundle_roundtrip;
      Alcotest.test_case "sg oracle equivalence" `Quick
        t_sg_oracle_equivalence;
      Alcotest.test_case "sg oracle equivalence on a cycle" `Quick
        t_sg_oracle_equivalence_on_cycle;
      Alcotest.test_case "campaign metrics" `Quick t_campaign_metrics;
      Alcotest.test_case "backend name registry in sync" `Quick
        t_backend_names_sync;
      Alcotest.test_case "grammar name registry in sync" `Quick
        t_grammar_names_sync;
      Alcotest.test_case "grammar/backend conflicts refused loudly" `Quick
        t_grammar_allowed;
      Alcotest.test_case "weak backends shrink and replay" `Quick
        t_weak_backends_shrink_and_replay;
      Alcotest.test_case "workload family recorded and preserved" `Quick
        t_family_recorded_and_preserved;
      Alcotest.test_case "essn failure tag" `Quick t_essn_failure_tag;
      Alcotest.test_case "lemma oracle negative control" `Quick
        t_lemma_negative_control;
      Alcotest.test_case "weak backends are register-only" `Quick
        t_weak_backends_register_only;
    ] )
