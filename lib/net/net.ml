module Sthread = Dps_sthread.Sthread
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Bwbucket = Dps_machine.Bwbucket
module Obs = Dps_obs.Obs

(* Trace row for a NIC: packets are event-context work with no simulated
   thread, so they render on a per-socket pseudo-thread. *)
let nic_tid socket = Obs.pseudo_tid ~kind:1 socket

type config = {
  link_latency : int;
  cycles_per_line : int;
  mtu_lines : int;
  ring_lines : int;
  rx_window : int;
  dma_charge : bool;
}

let default_config =
  {
    link_latency = 2_000;
    cycles_per_line = 10;
    mtu_lines = 24;
    ring_lines = 64;
    rx_window = 4096;
    dma_charge = true;
  }

type stats = {
  mutable pkts_rx : int;
  mutable pkts_tx : int;
  mutable bytes_rx : int;
  mutable bytes_tx : int;
  mutable dma_lines : int;
  mutable local_lines : int;
  mutable remote_lines : int;
  mutable backpressured : int;
  mutable refused : int;
  mutable accepted : int;
}

type nic = {
  socket : int;
  dma_hw : int;  (** per-socket DMA agent: coherence actor for NIC transfers *)
  rx_link : Bwbucket.t;  (** client->server direction *)
  tx_link : Bwbucket.t;  (** server->client direction *)
}

type conn_state = Connecting | Open | Refused | Closed

type conn = {
  id : int;
  nic : nic;
  mutable state : conn_state;
  rx : Byteq.t;  (** delivered, awaiting server recv *)
  mutable rx_pending : int;  (** bytes DMA'd but not yet delivered *)
  backlog : string Queue.t;  (** packets held at the NIC by the rx window *)
  rx_ring : int;
  tx_ring : int;
  mutable rx_wr : int;  (** ring write cursor, in lines *)
  mutable rx_rd : int;
  mutable tx_wr : int;
  mutable deliver_free : int;  (** FIFO horizon for post-DMA delivery *)
  mutable on_readable : (unit -> unit) option;
  rx_cb : string -> unit;
  on_refused : unit -> unit;
}

type t = {
  sched : Sthread.t;
  m : Machine.t;
  topo : Topology.t;
  cfg : config;
  nics : nic array;
  pending : conn Queue.t;
  accept_waitq : Sthread.Waitq.t;
  mutable listening : bool;
  mutable next_conn : int;
  st : stats;
}

let line_bytes = 64
let lines_of_bytes n = (n + line_bytes - 1) / line_bytes

let create sched ?(config = default_config) () =
  let m = Sthread.machine sched in
  let topo = Machine.topology m in
  (* a link direction serializes one line every [cycles_per_line]: a
     bucket with no burst, so a packet's delay is its wait behind earlier
     packets plus its own serialization *)
  let link () = Bwbucket.create ~rate:line_bytes ~per:config.cycles_per_line ~burst:0 in
  let nics =
    Array.init topo.Topology.sockets (fun s ->
        {
          socket = s;
          (* second hyperthread of the socket's first core: a real coherence
             actor whose private cache stands in for the NIC's DDIO slice *)
          dma_hw =
            (s * topo.Topology.cores_per_socket * topo.Topology.threads_per_core)
            + min 1 (topo.Topology.threads_per_core - 1);
          rx_link = link ();
          tx_link = link ();
        })
  in
  {
    sched;
    m;
    topo;
    cfg = config;
    nics;
    pending = Queue.create ();
    accept_waitq = Sthread.Waitq.create ();
    listening = true;
    next_conn = 0;
    st =
      {
        pkts_rx = 0;
        pkts_tx = 0;
        bytes_rx = 0;
        bytes_tx = 0;
        dma_lines = 0;
        local_lines = 0;
        remote_lines = 0;
        backpressured = 0;
        refused = 0;
        accepted = 0;
      };
  }
  |> fun t ->
  if Obs.tracing_on () then
    Array.iter
      (fun nic -> Obs.thread_name ~tid:(nic_tid nic.socket) (Printf.sprintf "nic s%d" nic.socket))
      t.nics;
  t

let sched t = t.sched
let config t = t.cfg
let nic_count t = Array.length t.nics
let stats t = t.st
let socket_of_conn c = c.nic.socket
let conn_id c = c.id

let local_fraction t =
  let total = t.st.local_lines + t.st.remote_lines in
  if total = 0 then 1.0 else float_of_int t.st.local_lines /. float_of_int total

(* Send [lines] of payload over a link direction: serialization delays
   departure, propagation delays arrival. Returns the arrival time. *)
let reserve t link ~lines =
  let now = Sthread.now t.sched in
  now + Bwbucket.charge link ~now ~bytes:(lines * line_bytes) + t.cfg.link_latency

(* DMA one packet's lines into the receive ring through the coherence
   directory, as the per-socket DMA agent. Returns the charged cycles. *)
let dma_in t c ~bytes =
  if not t.cfg.dma_charge then 0
  else begin
    let lines = lines_of_bytes bytes in
    let cost = ref 0 in
    for _ = 1 to lines do
      let addr = c.rx_ring + (c.rx_wr mod t.cfg.ring_lines) in
      c.rx_wr <- c.rx_wr + 1;
      cost :=
        !cost
        + Machine.access t.m ~now:(Sthread.now t.sched) ~thread:c.nic.dma_hw ~addr
            ~kind:Machine.Write
    done;
    t.st.dma_lines <- t.st.dma_lines + lines;
    (* DDIO payload bytes drain the socket's memory-controller bucket;
       queueing debt delays delivery (0 when bandwidth modeling is off) *)
    cost :=
      !cost
      + Machine.bw_charge_dma t.m ~now:(Sthread.now t.sched) ~socket:c.nic.socket ~bytes;
    !cost
  end

let notify_readable c = match c.on_readable with None -> () | Some f -> f ()

(* A packet has crossed the link: DMA it in (unless the window is full, in
   which case it waits at the NIC) and hand the bytes to the server side. *)
let rec deliver_pkt t c data =
  if c.state = Open then begin
    (* ring occupancy counts bytes mid-DMA too, not just delivered ones *)
    if Byteq.length c.rx + c.rx_pending >= t.cfg.rx_window then begin
      Queue.push data c.backlog;
      t.st.backpressured <- t.st.backpressured + 1
    end
    else begin
      let cost = dma_in t c ~bytes:(String.length data) in
      let now = Sthread.now t.sched in
      let when_ = max (now + cost) c.deliver_free in
      c.deliver_free <- when_;
      c.rx_pending <- c.rx_pending + String.length data;
      Sthread.at t.sched ~time:when_ (fun () ->
          c.rx_pending <- c.rx_pending - String.length data;
          if c.state = Open then begin
            (* edge-triggered: fire the readiness callback only on the
               empty-to-nonempty transition. Consumers that leave bytes
               behind re-arm themselves (the server re-enqueues while
               [recv_ready] > 0), so a level-triggered storm of wakeups
               per packet is pure overhead. *)
            let was_empty = Byteq.length c.rx = 0 in
            Byteq.push c.rx data;
            t.st.pkts_rx <- t.st.pkts_rx + 1;
            t.st.bytes_rx <- t.st.bytes_rx + String.length data;
            if Obs.tracing_on () then
              Obs.instant
                ~tid:(nic_tid c.nic.socket)
                ~now:(Sthread.now t.sched) ~cat:"net"
                ~args:[ ("conn", Obs.A_int c.id); ("bytes", Obs.A_int (String.length data)) ]
                "net.rx_pkt";
            if was_empty then notify_readable c
          end)
    end
  end

and release_backlog t c =
  while
    (not (Queue.is_empty c.backlog)) && Byteq.length c.rx + c.rx_pending < t.cfg.rx_window
  do
    deliver_pkt t c (Queue.pop c.backlog)
  done

let refuse_conn t c =
  if c.state <> Refused then begin
    c.state <- Refused;
    t.st.refused <- t.st.refused + 1;
    Byteq.clear c.rx;
    Queue.clear c.backlog;
    Sthread.at t.sched
      ~time:(Sthread.now t.sched + t.cfg.link_latency)
      (fun () -> c.on_refused ())
  end

let connect t ~nic ~rx ?(on_refused = fun () -> ()) () =
  let nic = t.nics.(nic) in
  let rings = Machine.alloc t.m (Machine.On_node nic.socket) ~lines:(2 * t.cfg.ring_lines) in
  let c =
    {
      id = t.next_conn;
      nic;
      state = Connecting;
      rx = Byteq.create ();
      rx_pending = 0;
      backlog = Queue.create ();
      (* both rings in ONE allocation: same addresses as the two
         back-to-back allocs this replaces, but half the region metadata —
         at fleet scale the region table, not the payload, is the memory
         bound. tx takes the base because record fields evaluate
         right-to-left, so the old tx alloc ran first; keeping the address
         map preserves bit-identical charge streams *)
      rx_ring = rings + t.cfg.ring_lines;
      tx_ring = rings;
      rx_wr = 0;
      rx_rd = 0;
      tx_wr = 0;
      deliver_free = 0;
      on_readable = None;
      rx_cb = rx;
      on_refused;
    }
  in
  t.next_conn <- t.next_conn + 1;
  let arrive = reserve t nic.rx_link ~lines:1 in
  Sthread.at t.sched ~time:arrive (fun () ->
      if c.state = Connecting then
        if t.listening then begin
          c.state <- Open;
          Queue.push c t.pending;
          ignore (Sthread.Waitq.signal t.sched t.accept_waitq)
        end
        else refuse_conn t c);
  c

let send t c data =
  if (c.state = Open || c.state = Connecting) && String.length data > 0 then begin
    let len = String.length data in
    let mtu = t.cfg.mtu_lines * line_bytes in
    let pos = ref 0 in
    while !pos < len do
      let n = min mtu (len - !pos) in
      (* single-packet payloads (the overwhelming case) ride as-is; only a
         multi-MTU response pays for substring copies *)
      let chunk = if n = len then data else String.sub data !pos n in
      pos := !pos + n;
      let arrive = reserve t c.nic.rx_link ~lines:(lines_of_bytes n) in
      Sthread.at t.sched ~time:arrive (fun () -> deliver_pkt t c chunk)
    done
  end

let rec accept t =
  match Queue.take_opt t.pending with
  | Some c ->
      t.st.accepted <- t.st.accepted + 1;
      Some c
  | None ->
      if not t.listening then None
      else begin
        Sthread.Waitq.wait t.accept_waitq;
        accept t
      end

let unlisten t =
  t.listening <- false;
  Queue.iter (fun c -> refuse_conn t c) t.pending;
  Queue.clear t.pending;
  ignore (Sthread.Waitq.broadcast t.sched t.accept_waitq)

let refuse t c = refuse_conn t c

let close _t c =
  if c.state = Open || c.state = Connecting then begin
    c.state <- Closed;
    Byteq.clear c.rx;
    Queue.clear c.backlog;
    (* nudge the serving side so it can observe the close and release the
       connection's slot — without this a churny client leaks server
       state on every disconnect *)
    match c.on_readable with Some f -> f () | None -> ()
  end

let is_closed c = c.state = Closed

let set_on_readable c f = c.on_readable <- Some f
let recv_ready c = Byteq.length c.rx

(* Tally a server-side touch of [lines] ring lines: socket-local iff the
   calling thread shares the NIC's socket. *)
let tally_locality t c ~lines =
  if Topology.socket_of_thread t.topo (Sthread.self_hw ()) = c.nic.socket then
    t.st.local_lines <- t.st.local_lines + lines
  else t.st.remote_lines <- t.st.remote_lines + lines

let recv t c ~max =
  let avail = min max (Byteq.length c.rx) in
  if avail = 0 then ""
  else begin
    let lines = lines_of_bytes avail in
    for _ = 1 to lines do
      Sthread.charge_read (c.rx_ring + (c.rx_rd mod t.cfg.ring_lines));
      c.rx_rd <- c.rx_rd + 1
    done;
    Sthread.flush ();
    tally_locality t c ~lines;
    let data = Byteq.take c.rx ~max:avail in
    release_backlog t c;
    data
  end

let reply t c data =
  let len = String.length data in
  if c.state = Open && len > 0 then begin
    (* the server thread streams the response into the transmit ring *)
    let lines = lines_of_bytes len in
    for _ = 1 to lines do
      let addr = c.tx_ring + (c.tx_wr mod t.cfg.ring_lines) in
      c.tx_wr <- c.tx_wr + 1;
      Sthread.access_pipelined ~factor:4 ~kind:Machine.Write addr
    done;
    tally_locality t c ~lines;
    (* NIC DMA-reads the ring (coherence only; the engine's own latency is
       folded into serialization) and the packets ride the tx link *)
    if t.cfg.dma_charge then begin
      for i = 0 to lines - 1 do
        ignore
          (Machine.access t.m ~now:(Sthread.now t.sched) ~thread:c.nic.dma_hw
             ~addr:(c.tx_ring + ((c.tx_wr - lines + i) mod t.cfg.ring_lines))
             ~kind:Machine.Read)
      done;
      (* tx DDIO is posted: the bytes drain the bucket but the engine does
         not block the serving thread (no-op when bandwidth is off) *)
      ignore (Machine.bw_charge_dma t.m ~now:(Sthread.now t.sched) ~socket:c.nic.socket ~bytes:len)
    end;
    let mtu = t.cfg.mtu_lines * line_bytes in
    let pos = ref 0 in
    while !pos < len do
      let n = min mtu (len - !pos) in
      let chunk = if n = len then data else String.sub data !pos n in
      pos := !pos + n;
      let arrive = reserve t c.nic.tx_link ~lines:(lines_of_bytes n) in
      t.st.pkts_tx <- t.st.pkts_tx + 1;
      t.st.bytes_tx <- t.st.bytes_tx + n;
      if Obs.tracing_on () then
        Obs.instant
          ~tid:(nic_tid c.nic.socket)
          ~now:(Sthread.now t.sched) ~cat:"net"
          ~args:[ ("conn", Obs.A_int c.id); ("bytes", Obs.A_int n) ]
          "net.tx_pkt";
      Sthread.at t.sched ~time:arrive (fun () -> if c.state = Open then c.rx_cb chunk)
    done
  end

let register_obs ?(labels = []) t reg =
  let module R = Dps_obs.Registry in
  let g name help f = R.gauge_fn reg ~labels ~help ("net." ^ name) f in
  g "pkts_rx" "packets delivered to the server side" (fun () -> float_of_int t.st.pkts_rx);
  g "pkts_tx" "response packets onto the tx links" (fun () -> float_of_int t.st.pkts_tx);
  g "bytes_rx" "request bytes delivered" (fun () -> float_of_int t.st.bytes_rx);
  g "bytes_tx" "response bytes sent" (fun () -> float_of_int t.st.bytes_tx);
  g "dma_lines" "lines DMA'd through the directory" (fun () -> float_of_int t.st.dma_lines);
  g "local_lines" "ring lines touched socket-locally" (fun () ->
      float_of_int t.st.local_lines);
  g "remote_lines" "ring lines touched cross-socket" (fun () ->
      float_of_int t.st.remote_lines);
  g "backpressured" "packets held at the NIC by the rx window" (fun () ->
      float_of_int t.st.backpressured);
  g "refused" "connections refused" (fun () -> float_of_int t.st.refused);
  g "accepted" "connections accepted" (fun () -> float_of_int t.st.accepted);
  g "local_fraction" "fraction of server ring traffic that stayed socket-local" (fun () ->
      local_fraction t)
