(** Per-poller top-k front cache with delegation-coherent invalidation
    (DESIGN.md §10).

    Delegation concentrates every operation on a hot key onto the one
    partition that owns it, so under Zipf skew the owning poller becomes
    the throughput ceiling. This module puts a tiny (O(100) entries)
    direct-mapped presence cache in front of the backend GET path of each
    server poller: a hit costs one local probe plus one racy read of the
    key's backend version, instead of a full delegation round-trip into
    the hot partition.

    Coherence contract — {e monotonic reads per connection}: every applied
    write at the owning partition bumps a per-key version
    ({!Dps.bump_version}); a cached entry is served only while its recorded
    version still matches. The version is read {e before} the backend
    fetch on every fill, so a write racing the fill can only make the entry
    look older than it is (a spurious refetch), never newer (a stale value
    served as fresh). The poller additionally drops its own entry on every
    SET/DELETE it forwards, so a set→get on the same connection never
    returns the pre-set value even before the delegated write lands.

    Admission is LFU-lite: a miss key duels the resident entry of its slot
    via a candidate counter, and evicts only once it has out-counted the
    resident's (decaying) hit count — one-shot keys cannot flush the hot
    set. All probe/update traffic is charged to the slot's cache line via
    {!Dps_sthread.Sthread}, so simulated cost tracks the host data layout
    (four entries per line). *)

type stats = {
  mutable hits : int;  (** served from cache, version verified fresh *)
  mutable misses : int;  (** key not resident; went to the backend *)
  mutable stale : int;  (** resident but version mismatch; refetched *)
  mutable admits : int;  (** installs (fills of vacant slots + evictions) *)
  mutable invals : int;  (** entries dropped by {!invalidate} *)
}

type t

val create : ?entries:int -> alloc:(lines:int -> int) -> version_of:(int -> int) -> unit -> t
(** [create ~alloc ~version_of ()] builds a cache of [entries] slots
    (default 128, clamped to ≥ 1). [alloc ~lines] must return the base
    line address of a fresh charged allocation — pollers pass a socket-
    local allocator so probes stay NUMA-local. [version_of] is the
    backend's charged per-key version read ({!Variants.t.version_of}). *)

val lookup : t -> int -> fetch:(unit -> bool) -> bool
(** [lookup t key ~fetch] returns the key's presence, serving from the
    cache when the resident entry's version still matches and calling
    [fetch] (the backend GET) otherwise. The fill protocol reads the
    version before [fetch] runs; see the module header for why that
    ordering is load-bearing. *)

val invalidate : t -> int -> unit
(** Drop the entry for [key] if resident. Called by the owning poller on
    every SET/DELETE it forwards, closing the same-connection
    read-your-writes window. *)

val stats : t -> stats
(** Live counters (not a snapshot). *)

val entries : t -> int

val zero_stats : unit -> stats

val add_stats : into:stats -> stats -> unit
(** Accumulate [st] into [into] — aggregation across a server's pollers. *)
