(* perfbench: the serving benchmark's OCaml entry point.

     perfbench client --socket S --workload W --seed N --seconds T --out F
     perfbench verify --socket S --outcomes F
     perfbench judge  --workload W --seed N --wal F
     perfbench traced --workload W --seed N --dir D
     perfbench info

   perfbench/run.py drives these; see perfbench/README.md. *)

open Core
module Json = Obs_json

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("perfbench: unexpected argument " ^ a)
  in
  let cmd, kv =
    match args with
    | _ :: cmd :: rest -> (cmd, opts [] rest)
    | _ -> failwith "perfbench: missing subcommand"
  in
  let get k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> failwith ("perfbench: missing --" ^ k)
  in
  let int k = int_of_string (get k) in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match cmd with
  | "client" ->
      Client.run ~socket:(get "socket") ~workload:(get "workload")
        ~seed:(int "seed")
        ~seconds:(float_of_string (get "seconds"))
        ~settle_s:(float_of_string (get "settle"))
        ~out:(get "out")
  | "verify" ->
      let outcomes =
        match Json.parse (Judge.read_file (get "outcomes")) with
        | Ok (Json.Arr l) ->
            List.map
              (function
                | Json.Arr [ Json.Str t; Json.Str o ] -> (Option.get (Txn_id.of_string t), o)
                | _ -> failwith "perfbench: bad outcomes file")
              l
        | _ -> failwith "perfbench: bad outcomes file"
      in
      let bad = Client.verify ~socket:(get "socket") ~outcomes in
      Printf.printf "{\"checked\":%d,\"mismatches\":%d}\n" (List.length outcomes) bad
  | "judge" -> Judge.run ~workload:(get "workload") ~seed:(int "seed") ~wal:(get "wal")
  | "traced" -> Traced.run ~workload:(get "workload") ~seed:(int "seed") ~dir:(get "dir")
  | "info" ->
      (* Domain.recommended_domain_count on OCaml 5; 1 on 4.x, which has
         no domains. *)
      Printf.printf "{\"domains\":%d,\"ocaml\":%S}\n"
        (Domain_compat.recommended_worker_count ()) Sys.ocaml_version
  | c -> failwith ("perfbench: unknown subcommand " ^ c)
