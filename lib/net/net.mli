(** Deterministic network front-end model on the discrete-event clock.

    One NIC per socket of the simulated machine, each with a full-duplex
    link. Packets serialize onto a link (bandwidth: cycles per cache line),
    propagate (fixed latency), and are then DMA'd into a per-connection
    receive ring of cache lines homed on the NIC's socket — the DMA writes
    go through the machine's coherence directory via a per-socket DMA agent
    thread, so received data sits warm in the receiving socket's cache
    hierarchy (DDIO) and a poller on a *remote* socket pays the
    cross-socket gap the STREAM measurements quantify. Server reads of
    request bytes and writes of response bytes are charged to the calling
    simulated thread against the same rings, and tallied socket-local vs
    remote so placement quality is directly measurable.

    Clients live off-machine: they interact only through callbacks run as
    bare scheduler events ({!Sthread.at}), consuming no simulated cores.
    Everything is driven by the scheduler's event queue, so a given seed
    replays bit-for-bit. *)

module Sthread := Dps_sthread.Sthread

val link_latency : int
(** Propagation cycles per packet, one way: 2 000 (1 us at 2 GHz). *)

val cycles_per_line : int
(** Link serialization cost per 64 B line: 10 cycles (~100 Gb/s). Packets
    carry at most 24 lines (a 1536 B MTU); every packet is DMA'd through
    the coherence directory. Calibration table in DESIGN.md. *)

type config = {
  ring_lines : int;  (** per-connection rx/tx DMA ring size, in lines; positive *)
  rx_window : int;  (** per-connection buffered-byte cap before backpressure; positive *)
}

val default_config : config
(** 64-line rings, 4 KB rx window. *)

type t
type conn

val create : Sthread.t -> ?config:config -> unit -> t
(** Build one NIC per socket, listening. Raises [Invalid_argument] when
    [ring_lines] or [rx_window] is below 1. *)

val sched : t -> Sthread.t
val nic_count : t -> int

(** {1 Client side — callable from event callbacks, never charged} *)

val connect :
  t ->
  nic:int ->
  tag:int ->
  rx:(int -> string -> unit) ->
  ?on_refused:(int -> unit) ->
  unit ->
  conn
(** Open a connection to NIC [nic]. The SYN rides the link like any packet;
    once it lands the connection is queued for {!accept}. [rx tag bytes]
    receives response bytes (per delivered packet); [on_refused tag] fires
    if the server refuses the connection (listener down or {!refuse}). Both
    get the connection's [tag], so a client with many connections passes
    the same two handlers to every [connect] and tells the connections
    apart by tag: a connection keeps no closure of its own. *)

val send : t -> conn -> string -> unit
(** Client-to-server bytes: split into MTU-sized packets, serialized onto
    the NIC's rx link in FIFO order, DMA'd into the connection's receive
    ring on arrival, then delivered to the server side (waking its poller).
    Packets beyond the receive window are held at the NIC and delivered as
    the server drains ({!recv}) — backpressure, not loss. Bytes sent to a
    refused or closed connection are dropped. *)

(** {1 Server side — called from simulated threads} *)

val accept : t -> conn option
(** Block (park) until a connection arrives; [None] once {!unlisten} has
    been called and the pending queue is empty. FIFO across all NICs. *)

val unlisten : t -> unit
(** Stop accepting: pending and future connection attempts are refused and
    blocked {!accept} callers are woken. Callable from any context. *)

val refuse : t -> conn -> unit
(** Server-side rejection of an accepted connection (e.g. over the
    connection limit): the client's [on_refused] fires one link latency
    later. *)

val close : t -> conn -> unit
(** Close from either endpoint: pending receive bytes are dropped and the
    serving side's readiness callback fires once more so it can observe
    {!is_closed} and release the connection (slot, queue entry, decoder).
    Idempotent; safe in any connection state. *)

val is_closed : conn -> bool

val set_on_readable : conn -> (conn -> unit) -> unit
(** Install the server-side readiness callback, which receives the
    connection, so one handler serves every connection of a poller. It
    fires (as a bare event) edge-triggered: only when delivered bytes turn
    an *empty* receive buffer readable. A consumer that leaves bytes
    buffered must re-arm itself (re-queue the connection while
    {!recv_ready} is positive) — it will not be notified again for packets
    landing on a non-empty buffer. Use it to queue the connection and
    {!Sthread.unpark} its poller. *)

val recv : t -> conn -> Wire.decoder -> max:int -> int
(** Move up to [max] buffered request bytes into the caller's decoder
    ({!Wire.feed_from}), charging the calling thread one read per cache
    line against the connection's receive ring (socket-local iff the
    caller sits on the NIC's socket). Returns the bytes moved, [0] when
    nothing is buffered. Draining may release backpressured packets. *)

val recv_ready : conn -> int
(** Buffered request bytes available to {!recv}. *)

val reply : t -> conn -> Buffer.t -> unit
(** Server-to-client bytes, the whole of the buffer: the calling thread
    writes the response into the connection's transmit ring (charged per
    line), the NIC DMA-reads it, and the packets ride the tx link back;
    the client's [rx] callback fires on arrival. Each MTU-sized packet is
    cut straight from the buffer, which the caller may clear or reuse as
    soon as [reply] returns. *)

val socket_of_conn : conn -> int
(** The NIC's socket — where this connection's rings live. *)

val conn_id : conn -> int
(** Dense per [t]: 0, 1, 2, ... in {!connect} order, so a server can keep
    its per-connection state in an array indexed by it. *)

(** {1 Statistics} *)

type stats = {
  mutable pkts_rx : int;
  mutable pkts_tx : int;
  mutable bytes_rx : int;
  mutable bytes_tx : int;
  mutable dma_lines : int;  (** lines DMA'd through the directory *)
  mutable local_lines : int;  (** ring lines touched socket-locally by servers *)
  mutable remote_lines : int;  (** ring lines touched cross-socket by servers *)
  mutable backpressured : int;  (** packets held at the NIC by the rx window *)
  mutable refused : int;  (** connections refused *)
  mutable accepted : int;
}

val stats : t -> stats

val local_fraction : t -> float
(** Fraction of server-side ring traffic that stayed socket-local; [1.0]
    when there has been none. *)

val register_obs : ?labels:(string * string) list -> t -> Dps_obs.Registry.t -> unit
(** Publish the {!stats} counters (and {!local_fraction}) as sampled
    gauges named [net.<counter>] in an observability registry. *)
