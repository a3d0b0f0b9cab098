open Nt_serial
open Nt_generic
open Nt_obs

type msg =
  | Submit of { g : int; prefix : int list; prog : Program.t }
  | Kill of int list
  | Stop

type t = {
  part : Partition.t;
  sp : Spine.t;
  rt : Router.t;
  engines : Shard_engine.t array;
  mboxes : msg Mailbox.t array;
  handles : unit Domain_compat.handle array;
  mutable stopped : bool;
}

let worker rt se mbox notify () =
  let eng = Shard_engine.engine se in
  let completed () =
    Nt_net.Engine.committed_top eng + Nt_net.Engine.aborted_top eng
  in
  let running = ref true in
  let idle = ref false in
  while !running do
    (* Quiescence with live transactions is transient — a blocked
       access becomes retryable only on a later drain — so the worker
       may park on the mailbox only when the engine is truly empty;
       otherwise it backs off and re-drains. *)
    let may_block = !idle && Nt_net.Engine.live_top eng = 0 in
    if !idle && not may_block then Thread.delay 0.0005;
    let msgs = Mailbox.pop ~block:may_block mbox in
    List.iter
      (function
        | Submit { g; prefix; prog } -> (
            match Shard_engine.submit se ~prefix prog with
            | Ok _ -> ()
            | Error _ ->
                Router.note_dispatch_failed rt ~g
                  ~piece:(match prefix with [ _; k ] -> Some k | _ -> None))
        | Kill prefix -> Shard_engine.kill_prefix se prefix
        | Stop -> running := false)
      msgs;
    if !running then begin
      let before = completed () in
      (match Shard_engine.drain ~burst:1024 se with
      | `Progress -> idle := false
      | `Quiescent | `Truncated -> idle := true);
      Shard_engine.publish se;
      if completed () > before then notify ()
    end
  done;
  Shard_engine.publish se

let start ?policy ?inform_policy ?abort_prob ?max_steps ?mode ?gating ?key
    ?max_program ?(obs_for = fun _ -> Obs.null) ?(notify = fun () -> ())
    ~shards ~seed objects factory =
  let part = Partition.create ?key ~shards objects in
  let sp = Spine.create () in
  let rt = Router.create ?max_program part sp in
  let engines =
    Array.init shards (fun s ->
        Shard_engine.create ?policy ?inform_policy ?abort_prob ?max_steps
          ~obs:(obs_for s) ?mode ?gating ?max_program ~spine:sp
          ~partition:part ~shard:s
          ~seed:(seed + (s * 1000003))
          factory)
  in
  Array.iter (fun e -> Shard_engine.set_on_report e (Router.note_report rt)) engines;
  let mboxes = Array.init shards (fun _ -> Mailbox.create ()) in
  let handles =
    Array.mapi
      (fun s se -> Domain_compat.spawn (worker rt se mboxes.(s) notify))
      engines
  in
  { part; sp; rt; engines; mboxes; handles; stopped = false }

let submit t prog =
  if t.stopped then Error "service stopped"
  else
    match Router.plan t.rt prog with
    | Error _ as e -> e
    | Ok { Router.p_g; p_dispatches; _ } ->
        List.iter
          (fun { Router.d_shard; d_prefix; d_prog } ->
            Mailbox.push t.mboxes.(d_shard)
              (Submit { g = p_g; prefix = d_prefix; prog = d_prog }))
          p_dispatches;
        Ok p_g

let kill t g =
  List.iter
    (fun (s, prefix) -> Mailbox.push t.mboxes.(s) (Kill prefix))
    (Router.kill_prefixes t.rt g)

let result t g = Router.result t.rt g
let pending t = Router.pending t.rt
let stats t = Array.map Shard_engine.published t.engines
let spine t = t.sp
let router t = t.rt
let partition t = t.part
let shards t = Array.length t.engines

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun mb -> Mailbox.push mb Stop) t.mboxes;
    Array.iter Domain_compat.join t.handles
  end

let finish t =
  if not t.stopped then invalid_arg "Service.finish: stop first";
  let locals = Array.map Shard_engine.finish t.engines in
  let stats =
    Array.fold_left
      (fun acc (r : Runtime.result) ->
        let s = r.Runtime.stats in
        {
          Runtime.actions = acc.Runtime.actions + s.Runtime.actions;
          rounds = acc.Runtime.rounds + s.Runtime.rounds;
          blocked_attempts =
            acc.Runtime.blocked_attempts + s.Runtime.blocked_attempts;
          deadlock_aborts =
            acc.Runtime.deadlock_aborts + s.Runtime.deadlock_aborts;
          deadlock_cycles =
            acc.Runtime.deadlock_cycles + s.Runtime.deadlock_cycles;
          injected_aborts =
            acc.Runtime.injected_aborts + s.Runtime.injected_aborts;
          truncated = acc.Runtime.truncated || s.Runtime.truncated;
        })
      {
        Runtime.actions = 0;
        rounds = 0;
        blocked_attempts = 0;
        deadlock_aborts = 0;
        deadlock_cycles = 0;
        injected_aborts = 0;
        truncated = false;
      }
      locals
  in
  let committed_top, aborted_top = Router.counts t.rt in
  let trace =
    Router.merged_trace t.rt
      (Array.to_list (Array.map Shard_engine.buffer t.engines))
  in
  let forest = Router.merged_forest t.rt in
  let schema = Program.schema_of ~objects:(Partition.objects t.part) forest in
  ({ Runtime.trace; stats; committed_top; aborted_top }, forest, schema)
