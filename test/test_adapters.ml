(* Tests for the Treiber stack and Michael-Scott queue (shared-memory), the
   §3.4 broadcast adapters that run them over DPS, and the §4.4 dedicated
   pollers. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Stack = Dps_ds.Stack_treiber
module Queue = Dps_ds.Queue_ms

let fresh () =
  let m = Machine.create Machine.config_default in
  (Sthread.create m, Alloc.create m ~cold:Alloc.Spread)

(* --- shared-memory stack --- *)

let test_stack_sequential () =
  let _, alloc = fresh () in
  let s = Stack.create alloc in
  Alcotest.(check (option int)) "empty pop" None (Stack.pop s);
  List.iter (Stack.push s) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "peek" (Some 3) (Stack.peek s);
  Alcotest.(check (list int)) "LIFO order" [ 3; 2; 1 ]
    (List.filter_map (fun _ -> Stack.pop s) [ (); (); () ]);
  Alcotest.(check (option int)) "drained" None (Stack.pop s)

let test_stack_concurrent_conservation () =
  let sched, alloc = fresh () in
  let s = Stack.create alloc in
  let popped = ref [] in
  let threads = 12 and per = 40 in
  for t = 0 to threads - 1 do
    Sthread.spawn sched ~hw:(t * 6 mod 80) (fun () ->
        for i = 1 to per do
          Stack.push s ((t * 1000) + i);
          if i mod 2 = 0 then
            match Stack.pop s with Some v -> popped := v :: !popped | None -> ()
        done)
  done;
  Sthread.run sched;
  Stack.check_invariants s;
  let remaining = Stack.to_list s in
  Alcotest.(check int) "conservation" (threads * per) (List.length !popped + List.length remaining);
  (* no duplicates *)
  let all = List.sort compare (!popped @ remaining) in
  let rec nodup = function a :: (b :: _ as r) -> a <> b && nodup r | _ -> true in
  Alcotest.(check bool) "no duplicates" true (nodup all)

(* --- shared-memory queue --- *)

let test_queue_sequential () =
  let _, alloc = fresh () in
  let q = Queue.create alloc in
  Alcotest.(check (option int)) "empty dequeue" None (Queue.dequeue q);
  List.iter (Queue.enqueue q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "peek" (Some 1) (Queue.peek q);
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ]
    (List.filter_map (fun _ -> Queue.dequeue q) [ (); (); () ]);
  Alcotest.(check int) "size" 0 (Queue.size q)

let test_queue_concurrent_conservation () =
  let sched, alloc = fresh () in
  let q = Queue.create alloc in
  let dequeued = ref [] in
  let threads = 12 and per = 40 in
  for t = 0 to threads - 1 do
    Sthread.spawn sched ~hw:(t * 6 mod 80) (fun () ->
        for i = 1 to per do
          Queue.enqueue q ((t * 1000) + i);
          if i mod 2 = 0 then
            match Queue.dequeue q with Some v -> dequeued := v :: !dequeued | None -> ()
        done)
  done;
  Sthread.run sched;
  Queue.check_invariants q;
  let remaining = Queue.to_list q in
  Alcotest.(check int) "conservation" (threads * per)
    (List.length !dequeued + List.length remaining);
  let all = List.sort compare (!dequeued @ remaining) in
  let rec nodup = function a :: (b :: _ as r) -> a <> b && nodup r | _ -> true in
  Alcotest.(check bool) "no duplicates" true (nodup all)

let test_queue_per_thread_fifo () =
  (* FIFO per producer: a single producer's values dequeue in order *)
  let sched, alloc = fresh () in
  let q = Queue.create alloc in
  let out = ref [] in
  Sthread.spawn sched ~hw:0 (fun () ->
      for i = 1 to 50 do
        Queue.enqueue q i
      done);
  Sthread.spawn sched ~hw:40 (fun () ->
      Sthread.work 50_000;
      let rec drain () =
        match Queue.dequeue q with
        | Some v ->
            out := v :: !out;
            drain ()
        | None -> ()
      in
      drain ());
  Sthread.run sched;
  Alcotest.(check (list int)) "producer order preserved" (List.init 50 (fun i -> i + 1))
    (List.rev !out)

(* --- DPS broadcast adapters --- *)

let with_dps_clients ~mk_data ~nclients body after =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  let dps = Dps.create sched ~nclients ~locality_size:10 ~hash:Fun.id ~mk_data () in
  for c = 0 to nclients - 1 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        body dps c;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run sched;
  after dps

let test_dps_stack () =
  let pushed = 20 * 10 in
  let popped = ref 0 in
  with_dps_clients
    ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Stack_treiber.create info.Dps.alloc)
    ~nclients:20
    (fun dps c ->
      for i = 1 to 10 do
        Dps_adapters.Stack.push dps ((c * 100) + i)
      done;
      for _ = 1 to 4 do
        match Dps_adapters.Stack.pop dps with Some _ -> incr popped | None -> ()
      done)
    (fun dps ->
      let remaining = Dps_adapters.Stack.total_size dps in
      Alcotest.(check int) "conservation across partitions" pushed (!popped + remaining);
      Alcotest.(check bool) "pops happened" true (!popped > 0))

let test_dps_queue () =
  let enqueued = 20 * 10 in
  let dequeued = ref [] in
  with_dps_clients
    ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Queue_ms.create info.Dps.alloc)
    ~nclients:20
    (fun dps c ->
      for i = 1 to 10 do
        Dps_adapters.Queue.enqueue dps ((c * 100) + i)
      done;
      for _ = 1 to 4 do
        match Dps_adapters.Queue.dequeue dps with
        | Some v -> dequeued := v :: !dequeued
        | None -> ()
      done)
    (fun dps ->
      let remaining = Dps_adapters.Queue.total_size dps in
      Alcotest.(check int) "conservation across partitions" enqueued
        (List.length !dequeued + remaining))

let test_dps_pq_adapter () =
  let removed = ref [] in
  with_dps_clients
    ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Pq_shavit.create info.Dps.alloc)
    ~nclients:20
    (fun dps c ->
      for i = 0 to 9 do
        ignore (Dps_adapters.Pq.insert dps ~key:(1 + (c * 10) + i) ~value:c)
      done;
      if c = 0 then begin
        (* after own inserts, drain a few global minima *)
        Dps_sthread.Sthread.work 30_000;
        for _ = 1 to 5 do
          match Dps_adapters.Pq.remove_min dps with
          | Some (k, _) -> removed := k :: !removed
          | None -> ()
        done
      end)
    (fun _ ->
      Alcotest.(check int) "removed 5 minima" 5 (List.length !removed);
      (* broadcast findMin drains in roughly ascending order when no
         concurrent inserts race it; here inserts mostly finished *)
      Alcotest.(check bool) "small keys came out" true (List.for_all (fun k -> k <= 250) !removed))

(* --- event-driven integration (§4.4 future work) --- *)

let test_event_loop_callbacks () =
  let fired = ref [] in
  with_dps_clients
    ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Hashtable.create info.Dps.alloc)
    ~nclients:20
    (fun dps c ->
      let loop = Dps_adapters.Events.create dps in
      for i = 0 to 9 do
        let key = (c * 100) + i in
        Dps_adapters.Events.submit loop ~key
          (fun h -> if Dps_ds.Hashtable.insert h ~key ~value:key then key else -1)
          (fun v -> fired := v :: !fired)
      done;
      Alcotest.(check bool) "in flight" true (Dps_adapters.Events.pending loop > 0);
      Dps_adapters.Events.drain_loop loop;
      Alcotest.(check int) "drained" 0 (Dps_adapters.Events.pending loop))
    (fun _ ->
      Alcotest.(check int) "all callbacks fired" 200 (List.length !fired);
      Alcotest.(check bool) "no failed inserts" true (List.for_all (fun v -> v >= 0) !fired))

let test_event_loop_pipelines () =
  (* 16 in-flight remote operations complete in far fewer cycles than 16
     sequential synchronous calls *)
  let sync_cycles = ref 0 and event_cycles = ref 0 in
  with_dps_clients
    ~mk_data:(fun _ -> ())
    ~nclients:20
    (fun dps c ->
      if c = 0 then begin
        let t0 = Sthread.time () in
        for i = 0 to 15 do
          ignore (Dps.call dps ~key:(11 + (i mod 7)) (fun () -> 0))
        done;
        sync_cycles := Sthread.time () - t0;
        let loop = Dps_adapters.Events.create dps in
        let t1 = Sthread.time () in
        for i = 0 to 15 do
          Dps_adapters.Events.submit loop ~key:(11 + (i mod 7)) (fun () -> 0) (fun _ -> ())
        done;
        Dps_adapters.Events.drain_loop loop;
        event_cycles := Sthread.time () - t1
      end)
    (fun _ ->
      Alcotest.(check bool)
        (Printf.sprintf "pipelining helps (%d vs %d)" !event_cycles !sync_cycles)
        true
        (!event_cycles < !sync_cycles))

(* --- partition-wide variables (§4.5) --- *)

let test_pvar () =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:20 ~locality_size:10 ~hash:Fun.id ~mk_data:(fun _ -> ()) ()
  in
  let counters =
    Dps_adapters.Pvar.create_on m dps
      ~node_of:(fun pid -> pid mod 4)
      ~init:(fun _ -> 0)
  in
  for c = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        (* each client bumps its own partition's counter 5 times; the
           variable is per-partition so clients of one locality share it *)
        for _ = 1 to 5 do
          let v = Dps_adapters.Pvar.get dps counters in
          Dps_adapters.Pvar.set dps counters (v + 1)
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run sched;
  (* Without synchronization increments may race (they are per-partition,
     not per-thread), but each copy must be touched and the total bounded. *)
  let total = Dps_adapters.Pvar.fold ( + ) 0 counters in
  Alcotest.(check bool) "all partition copies used" true
    (Dps_adapters.Pvar.get_at counters 0 > 0 && Dps_adapters.Pvar.get_at counters 1 > 0);
  Alcotest.(check bool) (Printf.sprintf "total bounded (%d)" total) true (total > 0 && total <= 100)

(* --- dedicated pollers (§4.4) --- *)

let test_dedicated_poller_responsiveness () =
  (* Locality 1's clients never serve (busy in non-DPS work); without a
     poller a delegation to them would stall until they finish. *)
  let run_with ~poller =
    let m = Machine.create Machine.config_default in
    let sched = Sthread.create m in
    let dps =
      Dps.create sched ~nclients:20 ~locality_size:10 ~hash:Fun.id
        ~serving:(if poller then Dps.pollers else Dps.Owner)
        ~mk_data:(fun _ -> ref 0)
        ()
    in
    if poller then
      (* a spare hardware thread in locality 1's socket runs the poller *)
      Sthread.spawn sched ~hw:21 (fun () -> Dps.run_poller dps ~pid:1);
    let latency = ref 0 in
    for c = 0 to 19 do
      Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
          Dps.attach dps ~client:c;
          if c < 10 then begin
            (* locality 0: one client delegates to locality 1 early *)
            if c = 0 then begin
              let t0 = Sthread.time () in
              ignore (Dps.call dps ~key:1 (fun r -> incr r; !r));
              latency := Sthread.time () - t0
            end
          end
          else (* locality 1: busy outside DPS for a long time *)
            Sthread.work 300_000;
          Dps.client_done dps;
          Dps.drain dps)
    done;
    Sthread.run sched;
    !latency
  in
  let without = run_with ~poller:false in
  let with_p = run_with ~poller:true in
  Alcotest.(check bool)
    (Printf.sprintf "poller cuts latency (%d -> %d)" without with_p)
    true
    (with_p * 10 < without)

let test_poller_requires_flag () =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:10 ~locality_size:10 ~hash:Fun.id ~mk_data:(fun _ -> ()) ()
  in
  Sthread.spawn sched ~hw:2 (fun () -> Dps.run_poller dps ~pid:0);
  Alcotest.check_raises "flag required"
    (Invalid_argument "Dps.run_poller: create with ~serving:(Shared _)") (fun () ->
      Sthread.run sched)

let suite =
  [
    ("stack sequential", `Quick, test_stack_sequential);
    ("stack concurrent conservation", `Quick, test_stack_concurrent_conservation);
    ("queue sequential", `Quick, test_queue_sequential);
    ("queue concurrent conservation", `Quick, test_queue_concurrent_conservation);
    ("queue per-thread FIFO", `Quick, test_queue_per_thread_fifo);
    ("dps stack adapter", `Quick, test_dps_stack);
    ("dps queue adapter", `Quick, test_dps_queue);
    ("dps pq adapter", `Quick, test_dps_pq_adapter);
    ("event loop callbacks", `Quick, test_event_loop_callbacks);
    ("event loop pipelines", `Quick, test_event_loop_pipelines);
    ("partition-wide variables", `Quick, test_pvar);
    ("dedicated poller responsiveness", `Quick, test_dedicated_poller_responsiveness);
    ("poller requires flag", `Quick, test_poller_requires_flag);
  ]
