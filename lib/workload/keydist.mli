(** Key distributions for benchmark workloads.

    [zipf] is YCSB's Zipfian generator (Gray et al.'s algorithm, the one the
    paper uses via YCSB for the memcached study and for "skewed" data-
    structure workloads) at YCSB's fixed skew, theta = 0.99; [scrambled]
    hashes the rank so hot keys spread over the key space, as YCSB's
    ScrambledZipfian does. *)

type t

val uniform : range:int -> t
val zipf : ?scrambled:bool -> range:int -> unit -> t
(** [scrambled] defaults to [true]. *)

val range : t -> int

val sample : t -> Dps_simcore.Prng.t -> int
(** A key in [0, range). *)
