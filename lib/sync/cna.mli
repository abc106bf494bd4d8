(** CNA — compact NUMA-aware queue lock (Dice & Kogan, EuroSys'19).

    An MCS-style queue lock whose releaser scans the waiter queue for the
    first thread on its own socket and hands the lock over locally,
    detaching the skipped remote-socket waiters into a secondary queue.
    The lock's data line therefore migrates between sockets rarely — like
    a cohort lock — but with a single queue word and no per-socket lock
    instances. After 32 consecutive same-socket hand-offs the secondary
    queue is spliced back in front of the main queue, so remote waiters
    are delayed, never starved (the paper draws this epoch from a PRNG; a
    fixed budget keeps runs replayable).

    This is the lock behind DPS's {e direct} partition mode: when the
    adaptive controller decides a partition is too cool to be worth
    delegation, remote clients bypass the message rings and serialize on
    the partition's CNA lock instead. *)

type t

val create : Dps_sthread.Alloc.t -> Dps_machine.Machine.t -> t

val acquire : t -> unit

val try_acquire : t -> bool
(** Uncontended acquisition only: succeeds iff the waiter queue is empty,
    and never joins it on failure — so a caller can bound its patience and
    fall back to another path (DPS's direct mode falls back to the message
    rings) without the unlink problem an abandoned MCS node would pose.
    Release with {!release} as usual. *)

val release : t -> unit
val held : t -> bool

val owner : t -> int option
(** Simulated thread id of the current holder ([Some (-1)] if acquired
    outside the simulation), or [None] when free. Recovery paths use this
    to recognise locks abandoned by crashed threads. *)

val break_lock : t -> unit
(** Force-release, regardless of holder. Only sound when the holder is
    known dead and no live thread can be waiting in {!acquire} — the
    situation of DPS's direct mode, which acquires exclusively through
    {!try_acquire} (never enqueued, so a crashed holder leaves nothing
    worth preserving in the queue). No-op when free. *)

val remote_transfers : t -> int
(** Hand-offs that moved the lock to another socket (tests/ablation). *)
