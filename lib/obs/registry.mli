(** Typed metrics registry.

    One registry unifies the stack's ad-hoc stats records
    ([Machine.stats], [Net.stats], [Server.stats], [Dps.health]) behind a
    single namespace: each subsystem exposes a [register_obs] that
    publishes its counters and gauges here under stable metric names with
    typed labels (for example [dps.pending_depth{partition=3,socket=1}]).

    Three instrument kinds:
    - {b counters}: monotonically increasing integers, owned by the
      registry ({!Counter.incr}/{!Counter.add});
    - {b gauges}: point-in-time floats, either set explicitly
      ({!Gauge.set}) or sampled on demand from a callback ({!gauge_fn}) —
      the idiom used to mirror existing mutable stats records without
      copying them;
    - {b histograms}: log-scale distributions built on
      {!Dps_simcore.Histogram} (same buckets as the latency figures).

    Registering the same metric name with the same label set twice raises
    [Invalid_argument]: collisions are bugs, not merges. Snapshots are
    sorted by (name, labels) so output is deterministic. *)

type t

val create : unit -> t

type labels = (string * string) list
(** Label pairs, e.g. [("partition", "3"); ("socket", "1")]. Order given
    at registration is normalized (sorted by key) for identity and
    printing. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
end

module Histo : sig
  type t

  val observe : t -> int -> unit
end

val counter : t -> ?labels:labels -> ?help:string -> string -> Counter.t
val gauge : t -> ?labels:labels -> ?help:string -> string -> Gauge.t

val gauge_fn : t -> ?labels:labels -> ?help:string -> string -> (unit -> float) -> unit
(** A gauge whose value is sampled by calling the function at snapshot
    time. *)

val histo : t -> ?labels:labels -> ?help:string -> string -> Histo.t

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histo_v of { count : int; mean : float; p50 : int; p99 : int; p999 : int; max : int }

type sample = { name : string; labels : labels; value : value }

val snapshot : t -> sample list
(** Deterministic (sorted) point-in-time view; callback gauges are
    sampled here. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table of {!snapshot}. *)
