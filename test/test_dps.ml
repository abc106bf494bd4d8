(* Tests for the DPS runtime: partition mapping, local vs delegated
   execution, peer serving, async mode, range operations, consistency. *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

(* Per-partition toy structure: a plain counter array plus a record of which
   hardware thread executed each operation. *)
type part_data = {
  node : int;
  cells : int array;
  mutable ops_run : int;
  mutable hw_seen : int list;
}

let mk_sched () = Sthread.create (Machine.create Machine.config_default)

let mk_dps ?(nclients = 20) ?(locality_size = 10) ?ring_slots sched =
  Dps.create sched ~nclients ~locality_size
    ~hash:(fun k -> k)
    ?ring_slots
    ~mk_data:(fun (info : Dps.partition_info) ->
      { node = info.Dps.node; cells = Array.make 64 0; ops_run = 0; hw_seen = [] })
    ()

(* Spawn [nclients] client threads running [body tid]; every client attaches
   first and drains at the end, so delegations always complete. [until]
   bounds the run for callers that check a hang as a failure. *)
let run_clients ?until sched dps nclients body =
  for c = 0 to nclients - 1 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        body c;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run ?until sched

let bump cell (d : part_data) =
  d.cells.(cell) <- d.cells.(cell) + 1;
  d.ops_run <- d.ops_run + 1;
  d.hw_seen <- Sthread.self_hw () :: d.hw_seen;
  d.cells.(cell)

let test_partition_mapping () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  Alcotest.(check int) "2 partitions for 20 clients" 2 (Dps.npartitions dps);
  Alcotest.(check int) "key 0 -> p0" 0 (Dps.partition_of_key dps 0);
  Alcotest.(check int) "key 1 -> p1" 1 (Dps.partition_of_key dps 1);
  Alcotest.(check int) "key 7 -> p1" 1 (Dps.partition_of_key dps 7);
  (* partitions bound to distinct sockets, matching placement *)
  let d0 = Dps.partition_data dps 0 and d1 = Dps.partition_data dps 1 in
  Alcotest.(check int) "p0 on socket 0" 0 d0.node;
  Alcotest.(check int) "p1 on socket 1" 1 d1.node

let test_local_execution () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  run_clients sched dps 20 (fun tid ->
      (* client tid's own partition is tid/10; pick a key mapping there *)
      let key = tid / 10 in
      let v = Dps.call dps ~key (bump 3) in
      Alcotest.(check bool) "counter grew" true (v >= 1));
  Alcotest.(check int) "all ops local" 20 (Dps.local_ops dps);
  Alcotest.(check int) "no delegation" 0 (Dps.delegated_ops dps);
  let d0 = Dps.partition_data dps 0 and d1 = Dps.partition_data dps 1 in
  Alcotest.(check int) "p0 ops" 10 d0.ops_run;
  Alcotest.(check int) "p1 ops" 10 d1.ops_run

let test_delegated_execution_runs_remotely () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let topo = Topology.default in
  run_clients sched dps 20 (fun tid ->
      (* every client targets the *other* partition *)
      let key = 1 - (tid / 10) in
      ignore (Dps.call dps ~key (bump 1)));
  Alcotest.(check int) "all ops delegated" 20 (Dps.delegated_ops dps);
  let d0 = Dps.partition_data dps 0 and d1 = Dps.partition_data dps 1 in
  Alcotest.(check int) "p0 served 10" 10 d0.ops_run;
  Alcotest.(check int) "p1 served 10" 10 d1.ops_run;
  (* computation moved to the data: ops on partition p ran on p's socket *)
  List.iter
    (fun hw -> Alcotest.(check int) "p0 op on socket 0" 0 (Topology.socket_of_thread topo hw))
    d0.hw_seen;
  List.iter
    (fun hw -> Alcotest.(check int) "p1 op on socket 1" 1 (Topology.socket_of_thread topo hw))
    d1.hw_seen

let test_call_returns_value () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let results = Array.make 20 0 in
  run_clients sched dps 20 (fun tid ->
      results.(tid) <- Dps.call dps ~key:1 (fun d -> 1000 + d.node));
  Array.iter (fun v -> Alcotest.(check int) "value from partition 1" 1001 v) results

let test_no_lost_updates_under_delegation () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let per = 30 in
  run_clients sched dps 20 (fun _tid ->
      for i = 1 to per do
        ignore (Dps.call dps ~key:(i mod 4) (bump (i mod 4)))
      done);
  let total =
    Array.fold_left ( + ) 0 (Dps.partition_data dps 0).cells
    + Array.fold_left ( + ) 0 (Dps.partition_data dps 1).cells
  in
  Alcotest.(check int) "every op applied exactly once" (20 * per) total

let test_async_applied_after_drain () =
  let sched = mk_sched () in
  let dps = mk_dps ~ring_slots:4 sched in
  let per = 25 in
  run_clients sched dps 20 (fun _tid ->
      (* flood a small ring to exercise the full-ring path *)
      for i = 1 to per do
        Dps.execute_async dps ~key:(i mod 8) (fun d ->
            d.ops_run <- d.ops_run + 1;
            0)
      done);
  let total = (Dps.partition_data dps 0).ops_run + (Dps.partition_data dps 1).ops_run in
  Alcotest.(check int) "every async applied" (20 * per) total

let test_async_then_sync_ordering () =
  (* Read-your-writes through a ring: an async write followed by a sync read
     on the same partition must observe the write (FIFO rings). *)
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let ok = ref true in
  run_clients sched dps 20 (fun tid ->
      let key = 1 - (tid / 10) in
      (* a remote partition *)
      Dps.execute_async dps ~key (fun d ->
          d.cells.(tid) <- tid + 100;
          0);
      let v = Dps.call dps ~key (fun d -> d.cells.(tid)) in
      if v <> tid + 100 then ok := false);
  Alcotest.(check bool) "read your writes" true !ok

let test_execute_local () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let topo = Topology.default in
  run_clients sched dps 20 (fun tid ->
      let key = 1 - (tid / 10) in
      let my_hw = Sthread.self_hw () in
      let hw_ran =
        Dps.execute_local dps ~key (fun _ -> Sthread.self_hw ())
      in
      Alcotest.(check int) "ran on caller core" my_hw hw_ran;
      ignore (Topology.socket_of_thread topo my_hw));
  Alcotest.(check int) "no delegations" 0 (Dps.delegated_ops dps)

let test_range_operation () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  (Dps.partition_data dps 0).cells.(0) <- 7;
  (Dps.partition_data dps 1).cells.(0) <- 3;
  let mins = Array.make 20 max_int in
  run_clients sched dps 20 (fun tid ->
      mins.(tid) <- Dps.range dps (fun d -> d.cells.(0)) ~merge:min);
  Array.iter (fun v -> Alcotest.(check int) "min across partitions" 3 v) mins

let test_try_await_eventually_completes () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  run_clients sched dps 20 (fun tid ->
      let key = 1 - (tid / 10) in
      let c = Dps.execute dps ~key (fun d -> d.node) in
      let rec spin n =
        match Dps.try_await dps c with
        | Some v -> (n, v)
        | None -> spin (n + 1)
      in
      let _, v = spin 0 in
      Alcotest.(check int) "right partition answered" (1 - (tid / 10)) v)

let test_serve_counts () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  run_clients sched dps 20 (fun tid ->
      if tid < 10 then ignore (Dps.call dps ~key:1 (bump 0))
      else begin
        Sthread.work 5_000;
        (* explicitly serve whatever remains pending for my partition *)
        ignore (Dps.serve dps ~max:100)
      end);
  Alcotest.(check int) "10 delegations" 10 (Dps.delegated_ops dps);
  Alcotest.(check int) "all executed" 10 (Dps.partition_data dps 1).ops_run

let test_unattached_rejected () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  Sthread.spawn sched ~hw:0 (fun () -> ignore (Dps.call dps ~key:0 (fun _ -> 0)));
  Alcotest.check_raises "unattached" (Failure "Dps: thread not attached") (fun () ->
      Sthread.run sched)

let test_deterministic () =
  let run_once () =
    let sched = mk_sched () in
    let dps = mk_dps sched in
    run_clients sched dps 20 (fun tid ->
        for i = 1 to 10 do
          ignore (Dps.call dps ~key:((tid + i) mod 8) (bump ((tid + i) mod 16)))
        done);
    Sthread.now sched
  in
  Alcotest.(check int) "same end time" (run_once ()) (run_once ())

let test_four_partitions () =
  let sched = mk_sched () in
  let dps = mk_dps ~nclients:40 sched in
  Alcotest.(check int) "4 partitions" 4 (Dps.npartitions dps);
  run_clients sched dps 40 (fun tid ->
      for i = 0 to 7 do
        ignore (Dps.call dps ~key:i (bump (tid mod 64)))
      done);
  let total = ref 0 in
  for p = 0 to 3 do
    total := !total + (Dps.partition_data dps p).ops_run
  done;
  Alcotest.(check int) "all ops applied" (40 * 8) !total

let test_rebalance_moves_bucket () =
  let module H = Dps_ds.Hashtable in
  let sched = mk_sched () in
  let dps =
    Dps.create sched ~nclients:20 ~locality_size:10 ~hash:Fun.id
      ~mk_data:(fun (info : Dps.partition_info) -> H.create info.Dps.alloc)
      ()
  in
  let keys = [ 3; 131; 259; 387 ] in
  (* all in bucket 3 (key mod 128: 64 buckets for each of 2 partitions) *)
  let bucket = 3 in
  let moved_ok = ref false in
  for c = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        if c = 0 then begin
          let from = Dps.bucket_owner dps ~bucket in
          let to_ = 1 - from in
          List.iter
            (fun key ->
              ignore
                (Dps.call dps ~key (fun h -> if H.insert h ~key ~value:(key * 3) then 1 else 0)))
            keys;
          Dps.rebalance dps ~bucket ~to_
            ~extract:(fun h b ->
              List.filter_map
                (fun key ->
                  if Dps.bucket_of_key dps key = b then
                    match H.lookup h key with
                    | Some v ->
                        ignore (H.remove h key);
                        Some (key, v)
                    | None -> None
                  else None)
                keys)
            ~insert:(fun h ~key ~value -> ignore (H.insert h ~key ~value));
          (* the bucket's keys survive the move and route to the new owner *)
          let all_found =
            List.for_all
              (fun key ->
                Dps.call dps ~key (fun h ->
                    match H.lookup h key with Some v -> v | None -> -1)
                = key * 3)
              keys
          in
          moved_ok := all_found && Dps.bucket_owner dps ~bucket = to_
        end;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run sched;
  Alcotest.(check bool) "bucket moved with its keys" true !moved_ok

(* §3.3: "a thread that writes two values will see (read) those writes in
   order" — monotonic writes through one FIFO ring. *)
let test_monotonic_writes () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let violations = ref 0 in
  run_clients sched dps 20 (fun tid ->
      let key = 1 - (tid / 10) in
      (* remote partition *)
      for v = 1 to 10 do
        Dps.execute_async dps ~key (fun d ->
            d.cells.(tid) <- (tid * 1000) + v;
            0)
      done;
      (* a synchronous read behind the ten async writes must see the last *)
      let got = Dps.call dps ~key (fun d -> d.cells.(tid)) in
      if got <> (tid * 1000) + 10 then incr violations);
  Alcotest.(check int) "writes observed in order" 0 !violations

(* A delegation into a locality whose members all exited without serving
   is rescued only by self-healing escalation. A [try_await] polling loop
   (the event-driven adapter's pattern) must escalate like [await]. *)
let test_try_await_escalates () =
  let completion_time ~poll =
    let sched = mk_sched () in
    let dps =
      Dps.create sched ~nclients:20 ~locality_size:10 ~hash:Fun.id
        ~serving:(Dps.Shared { heal_after = Some 20_000; adaptive = None })
        ~mk_data:(fun _ -> ())
        ()
    in
    let done_at = ref None in
    for c = 0 to 19 do
      Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
          Dps.attach dps ~client:c;
          if c = 0 then begin
            (* key 1 lives on partition 1 *)
            let comp = Dps.execute dps ~key:1 (fun () -> 7) in
            if poll then begin
              let rec spin () =
                match Dps.try_await dps comp with
                | Some v -> done_at := Some (v, Sthread.time ())
                | None ->
                    if Sthread.time () < 2_000_000 then begin
                      Sthread.work 64;
                      spin ()
                    end
              in
              spin ()
            end
            else
              let v = Dps.await dps comp in
              done_at := Some (v, Sthread.time ())
          end;
          Dps.client_done dps;
          (* partition 1's members leave without ever serving *)
          if c < 10 then Dps.drain dps)
    done;
    Sthread.run sched;
    !done_at
  in
  let bounded what = function
    | Some (v, at) ->
        Alcotest.(check int) (what ^ " value") 7 v;
        Alcotest.(check bool) (what ^ " within 4 timeouts") true (at < 80_000)
    | None -> Alcotest.failf "%s still pending at 2M cycles" what
  in
  bounded "await" (completion_time ~poll:false);
  bounded "try_await" (completion_time ~poll:true)

(* [abs (hash key)] is negative for [min_int]; the bucket must still land
   in range (192 buckets for 3 partitions), and every other hash value
   keeps its old bucket. *)
let test_bucket_of_min_int_hash () =
  let h = ref 0 in
  let dps =
    Dps.create (mk_sched ()) ~nclients:30 ~locality_size:10
      ~hash:(fun _ -> !h)
      ~mk_data:(fun _ -> ())
      ()
  in
  List.iter
    (fun (hash, bucket) ->
      h := hash;
      Alcotest.(check int)
        (Printf.sprintf "bucket of hash %d" hash)
        bucket (Dps.bucket_of_key dps 0))
    [ (min_int, 64); (-193, 1); (-1, 1); (0, 0); (191, 191); (max_int, max_int mod 192) ]

let test_create_rejects_impossible () =
  let create ?ring_slots ?check_budget ?versions ?heal_after () =
    let serving =
      Option.map (fun n -> Dps.Shared { heal_after = Some n; adaptive = None }) heal_after
    in
    ignore
      (Dps.create (mk_sched ()) ~nclients:20 ~locality_size:10 ~hash:Fun.id ?ring_slots
         ?check_budget ?versions ?serving
         ~mk_data:(fun _ -> ())
         ())
  in
  List.iter
    (fun (what, make) -> Alcotest.check_raises what (Invalid_argument ("Dps.create: " ^ what)) make)
    [
      ("ring_slots < 1", fun () -> create ~ring_slots:0 ());
      ("check_budget < 1", fun () -> create ~check_budget:0 ());
      ("versions < 0", fun () -> create ~versions:(-1) ());
      ("heal_after < 1", fun () -> create ~heal_after:0 ());
    ];
  (* the smallest legal values still build *)
  create ~ring_slots:1 ~check_budget:1 ~versions:0 ~heal_after:1 ()

(* [set_mode] needs the mode word: every policy without [adaptive] is
   refused up front, before anything is charged *)
let test_set_mode_requires_adaptive () =
  List.iter
    (fun serving ->
      let dps =
        Dps.create (mk_sched ()) ~nclients:20 ~locality_size:10 ~hash:Fun.id ~serving
          ~mk_data:(fun _ -> ())
          ()
      in
      Alcotest.check_raises "adaptive required"
        (Invalid_argument "Dps.set_mode: create with ~serving:(Shared { adaptive = Some _; _ })")
        (fun () -> Dps.set_mode dps ~pid:0 `Direct))
    [ Dps.Owner; Dps.pollers; Dps.self_healing ]

(* Liveness, fault-free: after every client attaches, each ring of every
   partition has a member serving it, under every serving policy. Every
   client calls once into every partition. A ring that no member serves
   never completes under [Owner] or [pollers] (no poller threads run here),
   and completes under healing only by a takeover after the 1M-cycle heal
   timeout; the bounded run turns either into a failure instead of a hang.
   Tail localities (nclients not a multiple of locality_size) are where a
   ring can fall between members. *)
let serving_policies =
  QCheck.(
    make ~print:fst
      Gen.(
        oneofl
          [
            ("Owner", Dps.Owner);
            ("pollers", Dps.pollers);
            ("healing 1M", Dps.Shared { heal_after = Some 1_000_000; adaptive = None });
          ]))

let qcheck_every_ring_served =
  QCheck.Test.make ~name:"every ring has a server after attach" ~count:60
    QCheck.(triple (int_range 1 40) (int_range 1 12) serving_policies)
    (fun (nclients, locality_size, (_, serving)) ->
      let sched = mk_sched () in
      let dps =
        Dps.create sched ~nclients ~locality_size ~hash:Fun.id ~serving
          ~mk_data:(fun _ -> ref 0)
          ()
      in
      let nparts = Dps.npartitions dps in
      run_clients ~until:500_000 sched dps nclients (fun _ ->
          for pid = 0 to nparts - 1 do
            ignore (Dps.call dps ~key:pid (fun r -> incr r; !r))
          done);
      Sthread.live_threads sched = 0
      && List.for_all
           (fun pid -> !(Dps.partition_data dps pid) = nclients)
           (List.init nparts Fun.id)
      && (Dps.health dps).takeovers = 0)

(* A server parked in [poll] is registered only on the rings of its own
   share. When a crashed peer's share moves to it, the adoption must wake
   it, or a later delegation into an adopted ring rings the dead peer's
   bell and waits forever (no healing under [Owner]). Clients 2 and 3
   serve partition 1; client 1's ring there is client 3's until the
   crash. *)
let test_adopted_share_wakes_parked_server () =
  let sched = mk_sched () in
  let dps = mk_dps ~nclients:4 ~locality_size:2 sched in
  let stop = ref false and latency = ref (-1) in
  for c = 0 to 3 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        (match c with
        | 1 ->
            Sthread.work 40_000;
            let t0 = Sthread.time () in
            ignore (Dps.call dps ~key:1 (bump 0));
            latency := Sthread.time () - t0;
            stop := true;
            ignore (Sthread.unpark sched ~tid:2)
        | 2 | 3 ->
            while not !stop do
              ignore (Dps.poll dps ~max:16)
            done
        | _ -> ());
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.at sched ~time:20_000 (fun () -> ignore (Sthread.kill sched ~tid:3));
  Sthread.run ~until:1_000_000 sched;
  Alcotest.(check bool)
    (Printf.sprintf "delegation into the adopted ring served (%d cycles)" !latency)
    true
    (!latency >= 0 && !latency <= 20_000);
  (* client 0 hands its share to client 1 at its early [client_done] *)
  Alcotest.(check int) "both shares adopted" 2 (Dps.health dps).Dps.adoptions;
  Alcotest.(check int) "every thread finished" 0 (Sthread.live_threads sched)

(* A sender killed at its publish's store never rings the doorbell; its
   exit hook must, or the batch waits behind a parked server. Client 1's
   ring in partition 1 is served by client 3, parked in [poll]; client 1
   dies at the store of a fire-and-forget delegation there. *)
let test_dead_sender_rings_doorbell () =
  let sched = mk_sched () in
  let dps = mk_dps ~nclients:4 ~locality_size:2 sched in
  let stop = ref false and applied_at = ref (-1) in
  Sthread.set_fault_hook sched
    (Some
       (fun ~tid ~now ~tag ~cycles:_ ->
         match tag with
         | Sthread.Access_op (Machine.Write, _) when tid = 1 && now >= 40_000 -> Some Sthread.Crash
         | _ -> None));
  for c = 0 to 3 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        (match c with
        | 1 ->
            Sthread.work 40_000;
            Dps.execute_async dps ~key:1 (fun _ ->
                applied_at := Sthread.time ();
                0)
        | 2 | 3 ->
            while not !stop do
              ignore (Dps.poll dps ~max:16)
            done
        | _ -> ());
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.at sched ~time:100_000 (fun () ->
      stop := true;
      List.iter (fun tid -> ignore (Sthread.unpark sched ~tid)) [ 2; 3 ]);
  Sthread.run ~until:1_000_000 sched;
  Alcotest.(check int) "the sender crashed" 1 (Dps.health dps).Dps.crashes;
  Alcotest.(check bool)
    (Printf.sprintf "its published delegation ran at %d" !applied_at)
    true
    (!applied_at >= 40_000 && !applied_at <= 60_000);
  Alcotest.(check int) "every thread finished" 0 (Sthread.live_threads sched)

let suite =
  [
    ("partition mapping", `Quick, test_partition_mapping);
    ("monotonic writes", `Quick, test_monotonic_writes);
    ("rebalance moves bucket", `Quick, test_rebalance_moves_bucket);
    ("local execution", `Quick, test_local_execution);
    ("delegation runs remotely", `Quick, test_delegated_execution_runs_remotely);
    ("call returns value", `Quick, test_call_returns_value);
    ("no lost updates", `Quick, test_no_lost_updates_under_delegation);
    ("async applied after drain", `Quick, test_async_applied_after_drain);
    ("async then sync ordering", `Quick, test_async_then_sync_ordering);
    ("execute_local", `Quick, test_execute_local);
    ("range operation", `Quick, test_range_operation);
    ("try_await completes", `Quick, test_try_await_eventually_completes);
    ("serve counts", `Quick, test_serve_counts);
    ("unattached rejected", `Quick, test_unattached_rejected);
    ("deterministic", `Quick, test_deterministic);
    ("four partitions", `Quick, test_four_partitions);
    ("try_await escalates under self-healing", `Quick, test_try_await_escalates);
    ("bucket of a min_int hash", `Quick, test_bucket_of_min_int_hash);
    ("create rejects impossible configs", `Quick, test_create_rejects_impossible);
    ("set_mode requires an adaptive policy", `Quick, test_set_mode_requires_adaptive);
    QCheck_alcotest.to_alcotest qcheck_every_ring_served;
    ("adopted share wakes a parked server", `Quick, test_adopted_share_wakes_parked_server);
    ("a sender killed at its publish rings the doorbell", `Quick, test_dead_sender_rings_doorbell);
  ]
