(** Log-scale latency histograms with percentile queries.

    Samples are non-negative integers (cycles). Buckets grow geometrically,
    giving ~2% relative resolution over [0, 2^62] at a fixed, small memory
    cost — good enough for p50/p99/p99.9 tail-latency reporting. *)

type t

val create : unit -> t
val add : t -> int -> unit
val count : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** [percentile t 0.99] is an upper bound on the p99 sample (bucket upper
    edge). Returns 0 on an empty histogram. *)

val max_value : t -> int
