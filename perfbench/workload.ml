(* The three benchmark workloads: object tables, windows and the
   per-connection program streams, all a pure function of the seed.
   The live client and the traced run draw from the same streams; the
   matching ntserved flags live in run.py. *)

open Core

type kind = Soak | Durable | Sharded

type t = {
  name : string;
  kind : kind;
  objects : (Obj_id.t * Datatype.t) list;
  shards : int;
  window : int;  (* live transactions per connection *)
}

let conns = 2

(* The tables ntserved builds for --types rw / --types mixed. *)
let rw_table n = List.init n (fun i -> (Obj_id.indexed "r" i, Register.make ()))

let mixed_table n =
  List.init n (fun i ->
      let x = Obj_id.indexed "x" i in
      match i mod 5 with
      | 0 -> (x, Register.make ())
      | 1 -> (x, Counter.make ())
      | 2 -> (x, Bank_account.make ~init:10 ())
      | 3 -> (x, Rset.make ())
      | _ -> (x, Fifo_queue.make ()))

let all =
  [
    {
      name = "smallbank-soak";
      kind = Soak;
      objects = rw_table 64;
      shards = 1;
      window = 2;
    };
    {
      name = "nested-durable";
      kind = Durable;
      objects = mixed_table 8;
      shards = 1;
      window = 8;
    };
    {
      name = "smallbank-sharded";
      kind = Sharded;
      objects = rw_table 64;
      shards = 2;
      window = 2;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Every workload runs ntserved's default backend. *)
let factory () = Check.factory_of Check.Undo

(* Share of two-account SmallBank transactions whose accounts are placed
   on different shards, so that about a fifth of all transactions are
   cross-shard (two-account kinds are 8/12 of the default mix). *)
let cross_share = 0.3

let two_account = function
  | Gen.Balance | Gen.Write_check | Gen.Amalgamate | Gen.Payment -> true
  | Gen.Deposit -> false

(* One SmallBank transaction over register accounts, Zipf-skewed
   (theta 0.9).  [pick_b a] chooses the second account. *)
let smallbank rng accounts ~pick_b =
  let n = Array.length accounts in
  let theta = Gen.smallbank_profile.Gen.theta in
  let acct () = Rng.zipf rng ~n ~theta in
  let read i = Program.access accounts.(i) Datatype.Read in
  let write i =
    Program.access accounts.(i) (Datatype.Write (Value.Int (Rng.int rng 16)))
  in
  let kind = Gen.sample_kind rng Gen.smallbank_default in
  let a = acct () in
  let b = if two_account kind then pick_b a else a in
  match kind with
  | Gen.Balance -> Program.par [ read a; read b ]
  | Gen.Deposit -> Program.seq [ read a; write a ]
  | Gen.Write_check -> Program.seq [ Program.par [ read a; read b ]; write a ]
  | Gen.Amalgamate ->
      Program.seq [ Program.par [ read a; read b ]; write a; write b ]
  | Gen.Payment -> Program.seq [ read a; write a; read b; write b ]

(* Depth-2, fanout-3 random nesting over the mixed table, each access
   drawn from its object's own operation distribution. *)
let nested rng objects =
  let leaf () =
    let x, dt = Rng.pick_list rng objects in
    Program.access x (dt.Datatype.sample_ops rng)
  in
  let rec node d =
    if d = 0 then leaf ()
    else
      let n = 1 + Rng.int rng 3 in
      let comb = if Rng.bool rng then Program.Seq else Program.Par in
      Program.Node (comb, List.init n (fun _ -> node (d - 1)))
  in
  node 2

(* [streams w ~seed] is one program generator per connection. *)
let streams w ~seed =
  let master = Rng.create seed in
  List.init conns (fun _ ->
      let rng = Rng.split master in
      match w.kind with
      | Durable -> fun () -> nested rng w.objects
      | Soak ->
          let accounts = Array.of_list (List.map fst w.objects) in
          let n = Array.length accounts in
          let pick_b a =
            let b = Rng.zipf rng ~n ~theta:Gen.smallbank_profile.Gen.theta in
            if b = a then (a + 1) mod n else b
          in
          fun () -> smallbank rng accounts ~pick_b
      | Sharded ->
          let accounts = Array.of_list (List.map fst w.objects) in
          let part = Partition.create ~shards:w.shards w.objects in
          let shard_of i = Partition.shard_of part accounts.(i) in
          let on_shard s =
            Array.of_list
              (List.filter
                 (fun i -> shard_of i = s)
                 (List.init (Array.length accounts) Fun.id))
          in
          let by_shard = Array.init w.shards on_shard in
          let theta = Gen.smallbank_profile.Gen.theta in
          (* Zipf over the chosen shard's accounts, never [a] itself. *)
          let pick_on s a =
            let pool = by_shard.(s) in
            let j = Rng.zipf rng ~n:(Array.length pool) ~theta in
            if pool.(j) <> a then pool.(j) else pool.((j + 1) mod Array.length pool)
          in
          let pick_b a =
            let home = shard_of a in
            if Rng.float rng 1.0 < cross_share then
              pick_on ((home + 1 + Rng.int rng (w.shards - 1)) mod w.shards) a
            else pick_on home a
          in
          fun () -> smallbank rng accounts ~pick_b)

(* Shards a program touches (1 on single-engine workloads). *)
let footprint w =
  if w.shards = 1 then fun _ -> 1
  else
    let part = Partition.create ~shards:w.shards w.objects in
    fun prog ->
      let rec go acc = function
        | Program.Access (x, _) ->
            let s = Partition.shard_of part x in
            if List.mem s acc then acc else s :: acc
        | Program.Node (_, cs) -> List.fold_left go acc cs
      in
      List.length (go [] prog)
