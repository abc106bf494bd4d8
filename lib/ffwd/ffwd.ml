module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread

let group_size = 15

type slot = {
  raddr : int;  (* the (client, server) request line *)
  mutable seq : int;  (* bumped by the client per request *)
  mutable op : (unit -> int) option;
  mutable resp_seq : int;  (* published via the group's response line *)
  mutable resp : int;
}

type group = { gaddr : int; slots : slot array }

type server = { hw : int; groups : group array; mutable mlp : int (* see below *) }

type t = {
  sched : Sthread.t;
  servers : server array;
  clients : int;
  ids : (int, int) Hashtbl.t;  (* simulated thread id -> client slot *)
  mutable remaining : int;
  mutable batches : int;
}

let nservers t = Array.length t.servers
let server_batches t = t.batches

(* The server streams independent request-line reads, so their miss
   latencies overlap — ffwd's documented pipelining, without which its
   batched replies would buy nothing. The achievable memory-level
   parallelism tracks how many pending requests the last sweep actually
   found: a saturated server overlaps ~8 misses, an idle one none. *)
let max_pipeline = 8

(* Dispatch on the server is a hand-tuned indirect call — almost free. *)
let server_dispatch_cycles = 16

let server_access srv ~kind addr =
  Sthread.access_pipelined ~factor:(max 1 (min max_pipeline srv.mlp)) ~kind addr

(* Scan one group: execute every pending request, then publish all replies
   with a single response-line write (ffwd's reply batching). *)
let serve_group t srv g =
  let found = ref 0 in
  Array.iter
    (fun s ->
      server_access srv ~kind:Dps_machine.Machine.Read s.raddr;
      match s.op with
      | Some op when s.seq > s.resp_seq ->
          incr found;
          s.op <- None;
          Sthread.work server_dispatch_cycles;
          let v = op () in
          s.resp <- v;
          s.resp_seq <- s.seq
      | Some _ | None -> ())
    g.slots;
  if !found > 0 then begin
    server_access srv ~kind:Dps_machine.Machine.Write g.gaddr;
    t.batches <- t.batches + 1
  end;
  !found

let server_loop t srv () =
  while t.remaining > 0 do
    let found = ref 0 in
    Array.iter (fun g -> found := !found + serve_group t srv g) srv.groups;
    srv.mlp <- !found;
    if !found = 0 then Sthread.work 64 (* idle poll pause *)
  done

let create sched ~server_hw ~clients =
  assert (Array.length server_hw > 0 && clients > 0);
  let m = Sthread.machine sched in
  let topo = Machine.topology m in
  let ngroups = (clients + group_size - 1) / group_size in
  let mk_server hw =
    let node = Topology.socket_of_thread topo hw in
    let mk_group _ =
      let gaddr = Machine.alloc m (Machine.On_node node) ~lines:1 in
      let mk_slot _ =
        {
          raddr = Machine.alloc m (Machine.On_node node) ~lines:1;
          seq = 0;
          op = None;
          resp_seq = 0;
          resp = 0;
        }
      in
      { gaddr; slots = Array.init group_size mk_slot }
    in
    { hw; groups = Array.init ngroups mk_group; mlp = 1 }
  in
  let t =
    {
      sched;
      servers = Array.map mk_server server_hw;
      clients;
      ids = Hashtbl.create (2 * clients);
      remaining = clients;
      batches = 0;
    }
  in
  Array.iter (fun srv -> Sthread.spawn sched ~hw:srv.hw (server_loop t srv)) t.servers;
  t

let attach t ~client =
  assert (client >= 0 && client < t.clients);
  Hashtbl.replace t.ids (Sthread.self_id ()) client

let client_id t =
  match Hashtbl.find_opt t.ids (Sthread.self_id ()) with
  | Some c -> c
  | None -> failwith "Ffwd: thread not attached"

let call t ~server op =
  let srv_count = Array.length t.servers in
  assert (server >= 0 && server < srv_count);
  let cid = client_id t in
  let g = t.servers.(server).groups.(cid / group_size) in
  let slot = g.slots.(cid mod group_size) in
  (* marshal the call into the request line *)
  Sthread.work 100;
  slot.seq <- slot.seq + 1;
  slot.op <- Some op;
  Sthread.write slot.raddr;
  let want = slot.seq in
  (* replies can be millions of cycles away behind a serialized server;
     back off deeply rather than hammering the response line *)
  let b = Dps_sync.Backoff.create ~initial:32 ~cap:8192 () in
  while slot.resp_seq < want do
    Sthread.read g.gaddr;
    if slot.resp_seq < want then Dps_sync.Backoff.once b
  done;
  slot.resp

let client_done t = t.remaining <- t.remaining - 1
