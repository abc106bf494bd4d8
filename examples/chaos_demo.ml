(* Chaos demo: crash clients mid-run and watch the runtime heal.

   Twenty clients hammer a partitioned counter table. A deterministic
   fault plan (Dps_faults) kills one client of each locality mid-run and
   stalls the rest at random. The self-healing runtime detects the stuck
   delegations, takes over the dead peers' serving shares, re-issues lost
   operations, and every surviving client still finishes with nothing
   acknowledged lost. Run it twice: the seed makes the whole crash-and-
   recover drama replay bit for bit.

   Run with: dune exec examples/chaos_demo.exe *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Faults = Dps_faults

type counters = { cells : int array }

let () =
  let machine = Machine.create Machine.config_default in
  let sched = Sthread.create machine in

  (* Self-healing DPS: ring timeouts, takeover serving, re-issue. *)
  let dps =
    Dps.create sched ~nclients:20 ~locality_size:10
      ~hash:(fun key -> key)
      ~serving:(Dps.Shared { heal_after = Some 15_000; adaptive = None })
      ~mk_data:(fun (_ : Dps.partition_info) -> { cells = Array.make 64 0 })
      ()
  in

  (* The fault plan: background stalls everywhere, plus one scheduled
     kill per locality. Same seed, same chaos, same recovery. *)
  let plan =
    Faults.install sched ~seed:2026L (Faults.spec ~stall_prob:0.001 ~stall_cycles:2_000 ())
  in
  Faults.schedule_crash plan ~tid:3 ~at:20_000;
  Faults.schedule_crash plan ~tid:17 ~at:35_000;

  let acked = Array.make 20 0 in
  for client = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps client) (fun () ->
        Dps.attach dps ~client;
        for i = 1 to 50 do
          let key = i mod 8 in
          ignore
            (Dps.call dps ~key (fun d ->
                 d.cells.(key) <- d.cells.(key) + 1;
                 d.cells.(key)));
          acked.(client) <- acked.(client) + 1
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;

  Sthread.run sched;

  let acked_total = Array.fold_left ( + ) 0 acked in
  let applied =
    let t = ref 0 in
    for p = 0 to Dps.npartitions dps - 1 do
      t := !t + Array.fold_left ( + ) 0 (Dps.partition_data dps p).cells
    done;
    !t
  in
  let h = Dps.health dps in
  Printf.printf "clients crashed mid-run: %s\n"
    (String.concat ", " (List.map string_of_int (Faults.crashed plan)));
  Printf.printf "stalls injected: %d\n" (Faults.stalls_injected plan);
  Printf.printf "ops acknowledged: %d, ops applied: %d (crashed clients may each leave\n"
    acked_total applied;
  Printf.printf "  one unacknowledged op in flight — applied-acked here: %d)\n"
    (applied - acked_total);
  Printf.printf "healing: takeovers=%d adoptions=%d retries=%d lock_breaks=%d crashes=%d\n"
    h.Dps.takeovers h.Dps.adoptions h.Dps.retries h.Dps.lock_breaks h.Dps.crashes;
  Printf.printf "simulated time: %d cycles; surviving threads all finished: %b\n"
    (Sthread.now sched)
    (Sthread.live_threads sched = 0)
