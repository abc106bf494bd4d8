(** Per-layer host microbenchmarks: each calls one layer's public
    functions in a loop and reports host nanoseconds per call, so that a
    workload's event counts times these costs can be set against its
    measured wall time (the STREAM discipline: calibrate each layer alone
    before attributing whole-system numbers). Each figure is the median
    of five timed trials; simulations are rebuilt for every trial and only
    the loop itself is timed. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Heap = Dps_simcore.Heap
module Prng = Dps_simcore.Prng
module Wire = Dps_net.Wire

let trials = 5

(* [trial ()] prepares a fresh subject and returns the loop to time and
   the number of calls the loop makes. *)
let ns_per_call trial =
  Quantile.median
    (List.init trials (fun _ ->
         let loop, calls = trial () in
         let t0 = Unix.gettimeofday () in
         loop ();
         (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int calls))

(* event heap holding 1024 entries: one push plus one take per call *)
let heap ~iters () =
  let h = Heap.create () in
  let p = Prng.create 1L in
  for _ = 1 to 1024 do
    Heap.push h ~time:(Prng.int p 100_000) ()
  done;
  let gaps = Array.init 4096 (fun _ -> 1 + Prng.int p 100_000) in
  ( (fun () ->
      for i = 1 to iters do
        let t = Heap.next_time h in
        Heap.take h;
        Heap.push h ~time:(t + gaps.(i land 4095)) ()
      done),
    iters )

let one_thread ~iters body () =
  let m = Machine.create (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let line = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  Sthread.spawn sched ~hw:0 (fun () ->
      for _ = 1 to iters do
        body line
      done);
  ((fun () -> Sthread.run sched), iters)

(* one effect round trip: suspend, heap push and take, resume *)
let suspend ~iters = one_thread ~iters (fun _ -> Sthread.work 1)

(* a charged load that hits the private cache, plus its suspension *)
let read_hit ~iters = one_thread ~iters Sthread.read

(* the coherence model alone: 80 hardware threads over 4096 interleaved
   lines, half writes, so most accesses miss or invalidate *)
let access ~iters () =
  let m = Machine.create Machine.config_default in
  let base = Machine.alloc m Machine.Interleave ~lines:4096 in
  ( (fun () ->
      for i = 1 to iters do
        let kind = if i land 1 = 0 then Machine.Read else Machine.Write in
        ignore
          (Machine.access m ~now:i ~thread:(i * 7 mod 80) ~addr:(base + (i * 13 mod 4096)) ~kind)
      done),
    iters )

(* a whole delegated call in a 20-client, two-locality mini simulation *)
let dps_call ~iters () =
  let clients = 20 in
  let m = Machine.create (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:clients ~locality_size:10 ~hash:Fun.id ~mk_data:(fun _ -> ()) ()
  in
  let per_client = max 1 (iters / clients) in
  for c = 0 to clients - 1 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        for k = 1 to per_client do
          ignore (Dps.call dps ~key:(k + c) (fun () -> 0))
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  ((fun () -> Sthread.run sched), clients * per_client)

(* encode one request and parse it back: 1 in 10 is a 128-byte set *)
let wire ~iters () =
  let buf = Buffer.create 256 and dec = Wire.decoder () in
  let data = String.make 128 'x' in
  ( (fun () ->
      for i = 1 to iters do
        Buffer.clear buf;
        let key = string_of_int (i land 4095) in
        Wire.encode_request buf
          (if i mod 10 = 0 then Wire.Set { key; flags = i; exptime = 0; data; noreply = false }
           else Wire.Get [ key ]);
        Wire.feed dec (Buffer.contents buf);
        match Wire.next_request dec with
        | Wire.Item _ -> ()
        | Wire.Need_more | Wire.Bad _ -> failwith "wire microbenchmark: request did not parse"
      done),
    iters )

let names =
  [
    "simcore.heap_ns";
    "sthread.suspend_ns";
    "sthread.read_hit_ns";
    "machine.access_ns";
    "dps.call_ns";
    "net.wire_ns";
  ]

(** Host ns per call of each layer, in {!names} order. [scale] shrinks the
    loops (the smoke test runs them at 2%). *)
let run ~scale =
  let it n = max 100 (int_of_float (float_of_int n *. scale)) in
  List.combine names
    [
      ns_per_call (heap ~iters:(it 100_000));
      ns_per_call (suspend ~iters:(it 200_000));
      ns_per_call (read_hit ~iters:(it 100_000));
      ns_per_call (access ~iters:(it 50_000));
      ns_per_call (dps_call ~iters:(it 4_000));
      ns_per_call (wire ~iters:(it 50_000));
    ]
