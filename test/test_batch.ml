(* Deterministic checking of batched delegation: the coalesced request
   path (Dps.create ~batch) under explored schedules. Exactly-once must
   survive batching — sender-side staging, multi-op slots, batched
   completion publishing, and self-healing takeover of a partially
   flushed batch — and the planted drop-a-flushed-entry mutation must be
   caught by exact element accounting and replay bit-for-bit. *)

module Sthread = Dps_sthread.Sthread
module Schedule = Dps_check.Schedule
module Lin = Dps_check.Lin
module Check = Dps_check.Check
module Faults = Dps_faults

let batch = 4

type counters = { cells : int array }

let mk_counter_dps ?serving ?batch sim ~nclients ~locality_size =
  Dps.create sim.Check.sched ~nclients ~locality_size
    ~hash:(fun k -> k)
    ?serving ?batch
    ~mk_data:(fun (_ : Dps.partition_info) -> { cells = Array.make 32 0 })
    ()

let applied dps c =
  let total = ref 0 in
  for pid = 0 to Dps.npartitions dps - 1 do
    total := !total + (Dps.partition_data dps pid).cells.(c)
  done;
  !total

(* Synchronous calls interleaved with asynchronous increments to the same
   partitions: the stage coalesces the async ops, the sync await forces
   flushes mid-stream, and every ack/issue must land exactly once. *)
let dps_batched_exactly_once_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 6 in
      let dps = mk_counter_dps sim ~nclients ~locality_size:3 ~batch in
      let nparts = Dps.npartitions dps in
      let sent = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for i = 1 to per do
              Dps.execute_async dps ~key:(i mod nparts) (fun d ->
                  d.cells.(c) <- d.cells.(c) + 1;
                  0);
              sent.(c) <- sent.(c) + 1;
              ignore
                (Dps.call dps ~key:(i mod nparts) (fun d ->
                     d.cells.(c) <- d.cells.(c) + 1;
                     d.cells.(c)));
              sent.(c) <- sent.(c) + 1
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if a <> sent.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d sent but %d applied" c sent.(c) a)
      done;
      !bad)

(* Pure asynchronous flood: nothing awaits, so a dropped flushed entry
   cannot hang the run — it can only break the accounting below. This is
   the scenario the drop-batch-flush mutation must fail. *)
let dps_async_accounting_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 8 in
      let dps = mk_counter_dps sim ~nclients ~locality_size:3 ~batch in
      let nparts = Dps.npartitions dps in
      let sent = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for i = 1 to per do
              Dps.execute_async dps ~key:(i mod nparts) (fun d ->
                  d.cells.(c) <- d.cells.(c) + 1;
                  0);
              sent.(c) <- sent.(c) + 1
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if a <> sent.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d sent but %d applied" c sent.(c) a)
      done;
      (match !bad with
      | None when Dps.batch_flushes dps = 0 -> bad := Some "batching never engaged"
      | _ -> ());
      !bad)

(* Self-healing under batching: a client crashes mid-run; a surviving
   awaiter must take over its partially dispatched multi-op slot and every
   survivor's operations still apply exactly once. The victim issues only
   synchronous calls so its exposure is the usual at-most-one in-flight. *)
let dps_batched_takeover_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 6 and victim = 1 in
      let dps =
        mk_counter_dps sim ~nclients ~locality_size:3 ~batch
          ~serving:(Dps.Shared { heal_after = Some 15_000; adaptive = None })
      in
      let nparts = Dps.npartitions dps in
      let plan = Faults.install sim.Check.sched ~seed:5L (Faults.spec ()) in
      Faults.schedule_crash plan ~tid:victim ~at:5_000;
      let sent = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for i = 1 to per do
              if c <> victim then begin
                Dps.execute_async dps ~key:(i mod nparts) (fun d ->
                    d.cells.(c) <- d.cells.(c) + 1;
                    0);
                sent.(c) <- sent.(c) + 1
              end;
              ignore
                (Dps.call dps ~key:(i mod nparts) (fun d ->
                     d.cells.(c) <- d.cells.(c) + 1;
                     d.cells.(c)));
              sent.(c) <- sent.(c) + 1
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if c = victim then begin
          if a < sent.(c) || a > sent.(c) + 1 then
            bad := Some (Printf.sprintf "victim: %d sent but %d applied" sent.(c) a)
        end
        else if a <> sent.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d sent but %d applied" c sent.(c) a)
      done;
      !bad)

(* --- batched DPS adapters: relaxed-bag semantics + exact accounting --- *)

let multiset l = List.sort compare l

let adapter_scenario ~mk ~remaining body ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 in
      let dps, push, pop = mk sim in
      let r = Lin.recorder () in
      let pushed = ref [] in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            body c
              (fun v ->
                pushed := v :: !pushed;
                ignore (Lin.record r (Lin.Push v) (fun () -> push v; 0)))
              (fun () ->
                ignore
                  (Lin.record r Lin.Pop (fun () ->
                       match pop () with Some x -> x | None -> Lin.absent)));
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.run sim.Check.sched;
      let popped =
        List.filter_map
          (fun (e : Lin.seq_op Lin.event) ->
            match e.Lin.op with Lin.Pop when e.Lin.res <> Lin.absent -> Some e.Lin.res | _ -> None)
          (Lin.events r)
      in
      let rem = remaining dps in
      if multiset !pushed <> multiset (popped @ rem) then
        Some
          (Printf.sprintf "element accounting broken: %d pushed, %d popped, %d remaining"
             (List.length !pushed) (List.length popped) (List.length rem))
      else
        match Lin.check (module Lin.Bag_relaxed_spec) (Lin.events r) with
        | Lin.Linearizable _ -> None
        | Lin.Nonlinearizable m -> Some m
        | Lin.Exhausted -> None (* accounting above is the binding check *))

let adapter_body c push pop =
  for i = 0 to 2 do
    push ((100 * (c + 1)) + i);
    if i = 1 then pop ()
  done

let dps_batched_stack_scenario =
  adapter_scenario
    ~mk:(fun sim ->
      let dps =
        Dps.create sim.Check.sched ~nclients:6 ~locality_size:3 ~batch
          ~hash:(fun k -> k)
          ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Stack_treiber.create info.Dps.alloc)
          ()
      in
      (dps, Dps_adapters.Stack.push dps, fun () -> Dps_adapters.Stack.pop dps))
    ~remaining:(fun dps ->
      List.concat
        (List.init (Dps.npartitions dps) (fun pid ->
             Dps_ds.Stack_treiber.to_list (Dps.partition_data dps pid))))
    adapter_body

let dps_batched_queue_scenario =
  adapter_scenario
    ~mk:(fun sim ->
      let dps =
        Dps.create sim.Check.sched ~nclients:6 ~locality_size:3 ~batch
          ~hash:(fun k -> k)
          ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Queue_ms.create info.Dps.alloc)
          ()
      in
      (dps, Dps_adapters.Queue.enqueue dps, fun () -> Dps_adapters.Queue.dequeue dps))
    ~remaining:(fun dps ->
      List.concat
        (List.init (Dps.npartitions dps) (fun pid ->
             Dps_ds.Queue_ms.to_list (Dps.partition_data dps pid))))
    adapter_body

(* --- exploration entry points and the mutation self-test --- *)

let sweep name scenario () =
  match Check.explore ~name ~budget:30 scenario with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.Check.message

let with_flag flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let assert_caught_and_replays name scenario =
  match Check.explore ~name ~budget:150 scenario with
  | Ok () -> Alcotest.failf "%s: planted bug survived the schedule budget" name
  | Error f ->
      Alcotest.(check bool)
        (name ^ " minimized no larger than full") true
        (List.length f.Check.trace <= List.length f.Check.full_trace);
      let replay () = scenario (Schedule.make ~seed:0L (Schedule.Replay f.Check.trace)) in
      (match (replay (), replay ()) with
      | Some m1, Some m2 -> Alcotest.(check string) (name ^ " bit-for-bit replay") m1 m2
      | _ -> Alcotest.failf "%s: minimized trace did not replay the failure" name)

let test_mutation_dropped_batch_flush () =
  with_flag Dps.failpoint_drop_batch_flush (fun () ->
      assert_caught_and_replays "dps dropped batch flush" dps_async_accounting_scenario)

let suite =
  [
    ( "batched exactly-once delegation",
      `Quick,
      sweep "dps_batched_exactly_once" dps_batched_exactly_once_scenario );
    ( "batched async accounting",
      `Quick,
      sweep "dps_async_accounting" dps_async_accounting_scenario );
    ( "batched takeover after crash",
      `Quick,
      sweep "dps_batched_takeover" dps_batched_takeover_scenario );
    ( "batched stack adapter relaxed bag",
      `Quick,
      sweep "dps_batched_stack" dps_batched_stack_scenario );
    ( "batched queue adapter relaxed bag",
      `Quick,
      sweep "dps_batched_queue" dps_batched_queue_scenario );
    ("mutation: dropped batch flush caught", `Quick, test_mutation_dropped_batch_flush);
  ]
