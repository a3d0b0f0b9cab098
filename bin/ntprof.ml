(* ntprof: root-cause reports over JSONL telemetry traces and flight
   dumps.

   Point it at one or more traces produced with
   `ntsim --obs-format jsonl --obs-out FILE` (multiple files merge into
   one profile) and it prints the contention report: top-K contended
   objects with wait-time quantiles, the hottest serialization-graph
   edges with their witnessing actions, abort/alarm causes, and the
   metrics registry.  Optionally writes the rebuilt SG as annotated
   DOT (--dot) and the registry as Prometheus text (--prom).

   Flight-recorder dumps from ntserved (flight-*.jsonl, first line
   {"ev":"flight",...}) are detected automatically (or forced with
   --flight) and get the stage report instead: the critical path across
   the dump, per-stage exclusive-time quantiles, and the slowest
   requests with their stage breakdowns.  --folded writes folded-stack
   lines for flamegraph.pl / speedscope.

   Examples:
     ntsim -p commlock --obs-format jsonl --obs-out run.jsonl
     ntprof run.jsonl
     ntprof --top 5 --dot sg.dot --prom metrics.prom run1.jsonl run2.jsonl
     ntprof flight-001-slow.jsonl --folded stacks.txt *)

open Core
open Cmdliner

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* A flight dump leads with the recorder header (or, defensively, any
   stage span); everything else is an event trace. *)
let looks_like_flight path =
  match open_in path with
  | exception Sys_error _ -> false
  | ic ->
      let rec first () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.trim l = "" -> first ()
        | l -> Some l
      in
      let line = first () in
      close_in ic;
      (match line with
      | None -> false
      | Some l -> (
          match Obs_json.parse (String.trim l) with
          | Error _ -> false
          | Ok j -> (
              match Obs_json.member "ev" j with
              | Some (Obs_json.Str ("flight" | "stage")) -> true
              | _ -> false)))

let run_flight files top folded_path =
  let f = Flight.create () in
  List.iter
    (fun path ->
      try
        List.iter
          (fun e -> Format.eprintf "warning: %s@." e)
          (Flight.load f path)
      with Sys_error e ->
        Format.eprintf "ntprof: %s@." e;
        exit 2)
    files;
  if Flight.spans f = [] then begin
    Format.eprintf "ntprof: no spans parsed from %s@."
      (String.concat ", " files);
    exit 1
  end;
  Format.printf "%a" (Flight.report ~top) f;
  match folded_path with
  | Some "-" -> print_string (Flight.folded f)
  | Some path ->
      write_file path (Flight.folded f);
      Format.printf "@.folded stacks written to %s (flamegraph.pl input)@."
        path
  | None -> ()

let run_profile files top dot_path prom_path =
  let profiles =
    List.map
      (fun path ->
        let p = Profile.create () in
        (try
           List.iter
             (fun e -> Format.eprintf "warning: %s@." e)
             (Profile.load p path)
         with Sys_error e ->
           Format.eprintf "ntprof: %s@." e;
           exit 2);
        p)
      files
  in
  let p =
    match profiles with
    | [] -> assert false (* Arg.non_empty *)
    | first :: rest ->
        List.iter (fun q -> Profile.merge first q) rest;
        first
  in
  if Profile.events p = 0 then
    Format.eprintf "ntprof: no events parsed from %s@."
      (String.concat ", " files);
  Format.printf "%a" (Profile.report ~top) p;
  (match dot_path with
  | Some path ->
      write_file path (Profile.dot p);
      Format.printf "serialization graph written to %s (graphviz%s)@." path
        (if Profile.has_cycle p then ", cycle highlighted" else "")
  | None -> ());
  (match prom_path with
  | Some "-" -> print_string (Profile.prometheus p)
  | Some path ->
      write_file path (Profile.prometheus p);
      Format.printf "metrics written to %s (prometheus text)@." path
  | None -> ());
  if Profile.events p = 0 then exit 1

let run_cmd files top dot_path prom_path flight folded_path =
  if flight || List.exists looks_like_flight files then
    run_flight files top folded_path
  else run_profile files top dot_path prom_path

let cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL telemetry trace(s) from ntsim/ntcheck --obs-format \
             jsonl, or flight-recorder dump(s) from ntserved.  Multiple \
             files are merged into one report.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "k"; "top" ] ~docv:"K"
          ~doc:
            "Rows in the top-contended-objects / hottest-edges / \
             slowest-requests tables.")
  in
  let dot_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the serialization graph rebuilt from the trace as \
             Graphviz DOT, edges labelled with their witnessing actions \
             and any cycle highlighted.")
  in
  let prom_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry as Prometheus text exposition \
             ($(b,-) for stdout).")
  in
  let flight =
    Arg.(
      value & flag
      & info [ "flight" ]
          ~doc:
            "Treat the inputs as flight-recorder dumps even if the \
             header line is missing (normally auto-detected).")
  in
  let folded_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "With flight dumps: write folded-stack lines (exclusive µs \
             per stage path) for flamegraph.pl or speedscope ($(b,-) \
             for stdout).")
  in
  let term =
    Term.(
      const run_cmd $ files $ top $ dot_path $ prom_path $ flight
      $ folded_path)
  in
  Cmd.v
    (Cmd.info "ntprof" ~version:Version.string
       ~doc:
         "Contention, conflict-attribution and stage-timing reports \
          over nested-sg telemetry traces and ntserved flight dumps.")
    term

let () = exit (Cmd.eval cmd)
