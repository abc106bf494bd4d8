(* Tests for simulated locks: mutual exclusion under genuine interleaving,
   fairness, OPTIK validation semantics. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock
module Ticket = Dps_sync.Ticket
module Mcs = Dps_sync.Mcs
module Optik = Dps_sync.Optik

let mk () =
  let m = Machine.create Machine.config_default in
  let s = Sthread.create m in
  let alloc = Alloc.create m ~cold:(Alloc.Node 0) in
  (s, alloc)

(* Hammer a critical section from many threads; the increment is split
   across scheduling points so unprotected counting would lose updates. *)
let exercise_lock mk_lock =
  let s, alloc = mk () in
  let acquire, release = mk_lock alloc in
  let data_addr = Alloc.line alloc in
  let counter = ref 0 in
  let in_cs = ref 0 in
  let max_in_cs = ref 0 in
  let threads = 16 and iters = 25 in
  for t = 0 to threads - 1 do
    Sthread.spawn s ~hw:(t * 4 mod 80) (fun () ->
        for _ = 1 to iters do
          acquire ();
          incr in_cs;
          if !in_cs > !max_in_cs then max_in_cs := !in_cs;
          let v = !counter in
          Sthread.read data_addr;
          Sthread.work 50;
          counter := v + 1;
          Sthread.write data_addr;
          decr in_cs;
          release ()
        done)
  done;
  Sthread.run s;
  Alcotest.(check int) "mutual exclusion held" 1 !max_in_cs;
  Alcotest.(check int) "no lost updates" (threads * iters) !counter

let test_spinlock_mutex () =
  exercise_lock (fun alloc ->
      let l = Spinlock.create alloc in
      ((fun () -> Spinlock.acquire l), fun () -> Spinlock.release l))

let test_ticket_mutex () =
  exercise_lock (fun alloc ->
      let l = Ticket.create alloc in
      ((fun () -> Ticket.acquire l), fun () -> Ticket.release l))

let test_mcs_mutex () =
  exercise_lock (fun alloc ->
      let l = Mcs.create alloc in
      ((fun () -> Mcs.acquire l), fun () -> Mcs.release l))

let test_optik_mutex () =
  exercise_lock (fun alloc ->
      let l = Optik.create alloc in
      ((fun () -> Optik.lock l), fun () -> Optik.unlock l))

let test_spinlock_try () =
  let s, alloc = mk () in
  let l = Spinlock.create alloc in
  let got = ref [] in
  Sthread.spawn s ~hw:0 (fun () ->
      Alcotest.(check bool) "first try succeeds" true (Spinlock.try_acquire l);
      got := Spinlock.held l :: !got;
      Alcotest.(check bool) "second try fails" false (Spinlock.try_acquire l);
      Spinlock.release l;
      Alcotest.(check bool) "after release" true (Spinlock.try_acquire l);
      Spinlock.release l);
  Sthread.run s;
  Alcotest.(check (list bool)) "held inside" [ true ] !got

let test_ticket_fifo () =
  (* Threads staggered in time must acquire in arrival order. *)
  let s, alloc = mk () in
  let l = Ticket.create alloc in
  let order = ref [] in
  for t = 0 to 7 do
    Sthread.spawn s ~hw:(t * 2) (fun () ->
        Sthread.work (1 + (t * 2000));
        Ticket.acquire l;
        order := t :: !order;
        Sthread.work 5000;
        Ticket.release l)
  done;
  Sthread.run s;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !order)

let test_mcs_fifo () =
  let s, alloc = mk () in
  let l = Mcs.create alloc in
  let order = ref [] in
  for t = 0 to 7 do
    Sthread.spawn s ~hw:(t * 2) (fun () ->
        Sthread.work (1 + (t * 2000));
        Mcs.acquire l;
        order := t :: !order;
        Sthread.work 5000;
        Mcs.release l)
  done;
  Sthread.run s;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !order)

let test_optik_validation () =
  let s, alloc = mk () in
  let l = Optik.create alloc in
  Sthread.spawn s ~hw:0 (fun () ->
      let v = Optik.get_version l in
      Alcotest.(check bool) "unlocked version" false (Optik.is_locked v);
      Alcotest.(check bool) "lock at current version" true (Optik.try_lock_at l v);
      Alcotest.(check bool) "stale lock fails" false (Optik.try_lock_at l v);
      Optik.unlock l;
      Alcotest.(check bool) "old version now stale" false (Optik.try_lock_at l v);
      let v' = Optik.get_version l in
      Alcotest.(check bool) "new version works" true (Optik.try_lock_at l v');
      Optik.unlock l);
  Sthread.run s

let test_optik_conflict_detected () =
  (* A writer bumping the version invalidates a concurrent optimistic read. *)
  let s, alloc = mk () in
  let l = Optik.create alloc in
  let observed_stale = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      let v = Optik.get_version l in
      Sthread.work 10_000;
      (* other thread updates meanwhile *)
      if not (Optik.try_lock_at l v) then observed_stale := true
      else Optik.unlock l);
  Sthread.spawn s ~hw:2 (fun () ->
      Sthread.work 100;
      Optik.lock l;
      Sthread.work 50;
      Optik.unlock l);
  Sthread.run s;
  Alcotest.(check bool) "conflict detected" true !observed_stale

let test_cohort_mutex () =
  exercise_lock (fun alloc ->
      let m = Alloc.machine alloc in
      let l = Dps_sync.Cohort.create alloc m in
      ((fun () -> Dps_sync.Cohort.acquire l), fun () -> Dps_sync.Cohort.release l))

let test_cohort_prefers_local_handoff () =
  (* heavy contention from two sockets: cross-socket transfers must be far
     rarer than acquisitions *)
  let s, alloc = mk () in
  let m = Alloc.machine alloc in
  let l = Dps_sync.Cohort.create alloc m in
  let acquisitions = 16 * 25 in
  for t = 0 to 15 do
    (* sockets 0 and 2 *)
    let hw = if t < 8 then t * 2 else 40 + ((t - 8) * 2) in
    Sthread.spawn s ~hw (fun () ->
        for _ = 1 to 25 do
          Dps_sync.Cohort.acquire l;
          Sthread.work 100;
          Dps_sync.Cohort.release l
        done)
  done;
  Sthread.run s;
  let transfers = Dps_sync.Cohort.global_handoffs l in
  Alcotest.(check bool)
    (Printf.sprintf "few cross-socket transfers (%d of %d)" transfers acquisitions)
    true
    (transfers * 4 < acquisitions)

let test_cna_mutex () =
  exercise_lock (fun alloc ->
      let m = Alloc.machine alloc in
      let l = Dps_sync.Cna.create alloc m in
      ((fun () -> Dps_sync.Cna.acquire l), fun () -> Dps_sync.Cna.release l))

let test_cna_prefers_local_handoff () =
  (* heavy contention from two sockets: the releaser's scan must keep the
     lock on-socket, so cross-socket transfers are far rarer than
     hand-offs *)
  let s, alloc = mk () in
  let m = Alloc.machine alloc in
  let l = Dps_sync.Cna.create alloc m in
  let acquisitions = 16 * 25 in
  for t = 0 to 15 do
    (* sockets 0 and 2 *)
    let hw = if t < 8 then t * 2 else 40 + ((t - 8) * 2) in
    Sthread.spawn s ~hw (fun () ->
        for _ = 1 to 25 do
          Dps_sync.Cna.acquire l;
          Sthread.work 100;
          Dps_sync.Cna.release l
        done)
  done;
  Sthread.run s;
  let transfers = Dps_sync.Cna.remote_transfers l in
  Alcotest.(check bool)
    (Printf.sprintf "few cross-socket transfers (%d of %d)" transfers acquisitions)
    true
    (transfers * 4 < acquisitions);
  Alcotest.(check bool) "lock released at the end" false (Dps_sync.Cna.held l)

let test_cna_fairness_budget () =
  (* a remote waiter parked on the secondary queue must still get the lock
     once the local streak exhausts the fairness budget *)
  let s, alloc = mk () in
  let m = Alloc.machine alloc in
  let l = Dps_sync.Cna.create ~fairness:8 alloc m in
  let remote_got = ref 0 in
  (* one waiter on socket 2 against a stream of socket-0 acquirers *)
  Sthread.spawn s ~hw:40 (fun () ->
      Sthread.work 500;
      for _ = 1 to 3 do
        Dps_sync.Cna.acquire l;
        incr remote_got;
        Sthread.work 50;
        Dps_sync.Cna.release l
      done);
  for t = 0 to 7 do
    Sthread.spawn s ~hw:(t * 2) (fun () ->
        for _ = 1 to 40 do
          Dps_sync.Cna.acquire l;
          Sthread.work 50;
          Dps_sync.Cna.release l
        done)
  done;
  Sthread.run s;
  Alcotest.(check int) "remote waiter served all its acquisitions" 3 !remote_got

let test_lock_cold_path () =
  (* Outside the simulation locks are uncontended and free. *)
  let _, alloc = mk () in
  let l = Spinlock.create alloc in
  Spinlock.acquire l;
  Alcotest.(check bool) "held" true (Spinlock.held l);
  Spinlock.release l;
  let t = Ticket.create alloc in
  Ticket.acquire t;
  Ticket.release t;
  let m = Mcs.create alloc in
  Mcs.acquire m;
  Mcs.release m;
  Alcotest.(check bool) "mcs released" false (Mcs.held m)

let suite =
  [
    ("spinlock mutual exclusion", `Quick, test_spinlock_mutex);
    ("ticket mutual exclusion", `Quick, test_ticket_mutex);
    ("mcs mutual exclusion", `Quick, test_mcs_mutex);
    ("optik mutual exclusion", `Quick, test_optik_mutex);
    ("spinlock try_acquire", `Quick, test_spinlock_try);
    ("ticket FIFO", `Quick, test_ticket_fifo);
    ("mcs FIFO", `Quick, test_mcs_fifo);
    ("optik validation", `Quick, test_optik_validation);
    ("optik conflict detected", `Quick, test_optik_conflict_detected);
    ("cohort mutual exclusion", `Quick, test_cohort_mutex);
    ("cohort prefers local handoff", `Quick, test_cohort_prefers_local_handoff);
    ("cna mutual exclusion", `Quick, test_cna_mutex);
    ("cna prefers local handoff", `Quick, test_cna_prefers_local_handoff);
    ("cna fairness budget", `Quick, test_cna_fairness_budget);
    ("locks cold path", `Quick, test_lock_cold_path);
  ]
