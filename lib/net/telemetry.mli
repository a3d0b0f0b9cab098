(** Server-side telemetry: the windowed hub behind [Telemetry] frames
    and the structured audit log.

    The {!Hub} owns the one sliding-window instrument a serving loop
    cannot read straight off the engine: submit-to-completion latency,
    fed from {!Engine.create}'s [on_top_complete] hook.  Everything
    else in a frame — request counts, the per-object
    [runtime.refused.*] family behind the hot-object ranking, engine
    totals — is computed by differencing cumulative sources at frame
    time: engine counters against their previous readings, and the
    server's {!Nt_obs.Metrics} registry against a {!Nt_obs.Snapshot}.
    The submit path pays nothing for telemetry beyond the hook's two
    histogram updates; in particular no event stream is required, so
    the server runs a metrics-only recorder by default.

    The {!Audit} writer emits one JSON object per line: an entry for
    every admission veto (carrying the full cycle and the
    [explain_cycle] witness chain) and for every slow request, each
    with the client's request id when one was supplied — the server
    half of the trace-propagation contract in {!Wire}. *)

open Nt_base
open Nt_obs

module Hub : sig
  type t

  val create :
    ?slots:int -> ?top_k:int -> ?t0:float -> interval_s:float -> Metrics.t -> t
  (** A hub windowing over [slots] intervals (default 8), reporting at
      most [top_k] hot objects (default 5).  The registry is the one
      the server counts wire requests in ([served.requests]) and hands
      to the engine's recorder — frames rank hot objects by the
      interval delta of its [runtime.refused.<obj>] counters, which
      the runtime maintains whenever the recorder is enabled.  The hub
      also registers cumulative twins there so [--prom] exports see
      totals: [served.latency_us], one [served.stage.<name>_us] per
      stage (the seven canonical {!Nt_obs.Stage.stages} and the
      durability {!Nt_obs.Stage.wal_stages} are pre-registered),
      [served.gc.pause_us] and the [served.gc.pct]
      gauge.  [t0] is the hub's clock reading at creation (default 0,
      the server's monotonic origin) — the start of the first GC
      interval. *)

  val observe_latency : t -> int -> unit
  (** Record one submit-to-completion latency (µs) into both the
      window and the cumulative registry histogram. *)

  val observe_stage : t -> string -> int -> unit
  (** [observe_stage t stage us] records one stage duration (µs) into
      the stage's windowed and cumulative histograms (get-or-create;
      new stage names join frames after the canonical seven). *)

  val observe_gc : t -> dur_us:int -> unit
  (** Record one completed GC pause: feeds the [gc.pause] histograms
      and accrues the open interval's %time-in-GC ([gc_pct] in the
      frame, the [served.gc.pct] gauge at {!cut}). *)

  val seq : t -> int
  (** Frames built so far. *)

  val interval_s : t -> float

  (** {2 Frames}

      The engine-reading half of a frame is a [counts] value the caller
      assembles: {!counts_of_engine} for a server stepping one engine
      in its own loop, or per-shard {!Shard_engine.published} snapshots
      summed with {!merge} — the hub itself never touches an engine,
      so it cannot race a worker domain. *)

  type counts = {
    n_submitted : int;
    n_committed : int;
    n_aborted : int;
    n_vetoed : int;
    n_orphans : int;
    n_live : int;
    n_doomed : int;
    n_sg_nodes : int;
    n_sg_edges : int;
    n_sg_reorders : int;
  }

  val zero_counts : counts

  val counts_of_engine : Engine.t -> counts
  (** One engine's readings; must be called from the engine's
      owning thread. *)

  val merge : counts list -> counts
  (** Field-wise sum.  Exact for disjoint shard monitors: shard SGs
      partition the tops, cross-shard edges live in the spine. *)

  val peek :
    ?per_shard:Wire.shard_row list ->
    t ->
    counts:counts ->
    alarms:int ->
    conns:int ->
    subscribers:int ->
    now:float ->
    Wire.telemetry
  (** Build a frame for the {e open} (partial) interval without
      closing it — what a fresh subscriber gets immediately.  [alarms]
      is the server's actionable-alarm count (backend-dependent, so
      the caller supplies it); [per_shard] rides along unchanged
      (empty on a single-engine server).  Increments {!seq}. *)

  val cut :
    ?per_shard:Wire.shard_row list ->
    t ->
    counts:counts ->
    alarms:int ->
    conns:int ->
    subscribers:int ->
    now:float ->
    Wire.telemetry
  (** {!peek}, then close the interval: remember current cumulative
      readings as the new baseline, snapshot the registry and rotate
      the window.  Call once per telemetry interval. *)
end

module Audit : sig
  type t

  val open_file : string -> t
  val entries : t -> int

  val veto :
    t ->
    now:float ->
    req:string option ->
    client:string ->
    txn:Txn_id.t ->
    latency_us:int ->
    Admission.veto ->
    unit
  (** One JSONL entry: [ev:"veto"] with the vetoed node, the cycle as
      a transaction list, and the multi-line witness chain from
      [explain_cycle]. *)

  val slow :
    t ->
    now:float ->
    req:string option ->
    client:string ->
    txn:Txn_id.t ->
    latency_us:int ->
    outcome:string ->
    unit

  val close : t -> unit
end
