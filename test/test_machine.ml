(* Tests for the NUMA machine model: topology placement, cache boxes,
   coherence cost behaviour, NUMA policies. *)

module Topology = Dps_machine.Topology
module Machine = Dps_machine.Machine
module Cachebox = Dps_machine.Cachebox
module Costs = Dps_machine.Costs
module Prng = Dps_simcore.Prng
module Stats = Dps_simcore.Stats

let topo = Topology.default

let test_topology_counts () =
  Alcotest.(check int) "threads" 80 (Topology.nthreads topo);
  Alcotest.(check int) "cores" 40 (Topology.ncores topo)

let test_topology_mapping () =
  (* hw 0 and 1 are the two hyperthreads of core 0 on socket 0 *)
  Alcotest.(check int) "core of hw0" 0 (Topology.core_of_thread topo 0);
  Alcotest.(check int) "core of hw1" 0 (Topology.core_of_thread topo 1);
  Alcotest.(check (option int)) "sibling of hw0" (Some 1) (Topology.sibling_of_thread topo 0);
  Alcotest.(check (option int)) "sibling of hw1" (Some 0) (Topology.sibling_of_thread topo 1);
  (* hw 79 is the last hyperthread of core 39 on socket 3 *)
  Alcotest.(check int) "socket of hw79" 3 (Topology.socket_of_thread topo 79)

let sockets_used placed =
  placed |> Array.to_list
  |> List.map (Topology.socket_of_thread topo)
  |> List.sort_uniq compare

let test_placement_minimal_sockets () =
  (* paper rule: n <= 10 uses one socket, one hyperthread per core *)
  let p10 = Topology.placement topo ~n:10 in
  Alcotest.(check (list int)) "10 threads on socket 0" [ 0 ] (sockets_used p10);
  let cores =
    Array.to_list p10 |> List.map (Topology.core_of_thread topo) |> List.sort_uniq compare
  in
  Alcotest.(check int) "10 distinct cores" 10 (List.length cores)

let test_placement_spreads_then_hyperthreads () =
  let p40 = Topology.placement topo ~n:40 in
  Alcotest.(check (list int)) "40 threads over all sockets" [ 0; 1; 2; 3 ] (sockets_used p40);
  let distinct = Array.to_list p40 |> List.sort_uniq compare in
  Alcotest.(check int) "40 distinct hw threads" 40 (List.length distinct);
  (* all first hyperthreads *)
  Array.iter (fun hw -> Alcotest.(check int) "ht 0" 0 (hw mod 2)) p40;
  let p50 = Topology.placement topo ~n:50 in
  (* threads 40..49 are second hyperthreads confined to socket 0 *)
  for i = 40 to 49 do
    Alcotest.(check int) "second ht" 1 (p50.(i) mod 2);
    Alcotest.(check int) "on socket 0" 0 (Topology.socket_of_thread topo p50.(i))
  done

let test_placement_full () =
  let p80 = Topology.placement topo ~n:80 in
  let distinct = Array.to_list p80 |> List.sort_uniq compare in
  Alcotest.(check int) "80 distinct" 80 (List.length distinct)

let test_localities () =
  let placed = Topology.placement topo ~n:80 in
  let locs = Topology.localities topo ~placed ~size:10 in
  Alcotest.(check int) "8 localities" 8 (Array.length locs);
  Array.iter
    (fun loc ->
      let socks =
        loc |> Array.to_list |> List.map (Topology.socket_of_thread topo) |> List.sort_uniq compare
      in
      Alcotest.(check int) "locality within one socket" 1 (List.length socks))
    locs

let test_cachebox_basic () =
  let cb = Cachebox.create ~capacity:4 (Prng.create 3L) in
  List.iter (fun a -> ignore (Cachebox.add cb a)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "full" 4 (Cachebox.size cb);
  Alcotest.(check bool) "mem" true (Cachebox.mem cb 3);
  let victim = Cachebox.add cb 5 in
  Alcotest.(check bool) "eviction happened" true (victim <> None);
  Alcotest.(check int) "still full" 4 (Cachebox.size cb);
  Alcotest.(check bool) "new member present" true (Cachebox.mem cb 5);
  (match victim with
  | Some v -> Alcotest.(check bool) "victim gone" false (Cachebox.mem cb v)
  | None -> ());
  Cachebox.remove cb 5;
  Alcotest.(check bool) "removed" false (Cachebox.mem cb 5);
  Alcotest.(check int) "size after remove" 3 (Cachebox.size cb)

(* [add] takes only absent addresses (the machine's directory knows which
   are); an address that left the box, removed or evicted, is absent again
   and re-enters as one copy. *)
let test_cachebox_no_duplicate () =
  let cb = Cachebox.create ~capacity:4 (Prng.create 3L) in
  ignore (Cachebox.add cb 9);
  Cachebox.remove cb 9;
  ignore (Cachebox.add cb 9);
  Alcotest.(check int) "re-added once" 1 (Cachebox.size cb);
  List.iter (fun a -> ignore (Cachebox.add cb a)) [ 1; 2; 3 ];
  (match Cachebox.add cb 4 with
  | Some v -> ignore (Cachebox.add cb v)
  | None -> Alcotest.fail "a full box evicts");
  Alcotest.(check int) "still full" 4 (Cachebox.size cb);
  Alcotest.(check int) "members distinct" 4
    (List.length (List.filter (Cachebox.mem cb) [ 1; 2; 3; 4; 9 ]))

let qcheck_cachebox_capacity =
  QCheck.Test.make ~name:"cachebox never exceeds capacity" ~count:100
    QCheck.(list (int_bound 50))
    (fun addrs ->
      let cb = Cachebox.create ~capacity:8 (Prng.create 17L) in
      List.iter (fun a -> if not (Cachebox.mem cb a) then ignore (Cachebox.add cb a)) addrs;
      Cachebox.size cb <= 8
      && List.length (List.filter (Cachebox.mem cb) (List.sort_uniq compare addrs))
         = Cachebox.size cb)

(* The address index is built at a box's first [remove]; it must not
   change a single replacement decision. Two boxes share a PRNG seed and
   run the same adds and removes; one builds its index before its first
   add (a [remove] of an absent address), the other whenever the sequence
   first removes. Victims and sizes must match, and both must hold exactly
   what a list model holds. *)
let qcheck_cachebox_lazy_index =
  QCheck.Test.make ~name:"cachebox lazy index is exact" ~count:200
    QCheck.(pair (int_range 1 16) (list (pair bool (int_bound 63))))
    (fun (capacity, ops) ->
      let early = Cachebox.create ~capacity (Prng.create 5L) in
      let late = Cachebox.create ~capacity (Prng.create 5L) in
      Cachebox.remove early 64;
      let agree model =
        Cachebox.size early = List.length model
        && Cachebox.size late = List.length model
        && Cachebox.index_ok early && Cachebox.index_ok late
        && List.for_all
             (fun a ->
               let held = List.mem a model in
               Cachebox.mem early a = held && Cachebox.mem late a = held)
             (List.init 65 Fun.id)
      in
      let model = ref [] in
      List.for_all
        (fun (is_add, a) ->
          let same_victim =
            if not is_add then begin
              Cachebox.remove early a;
              Cachebox.remove late a;
              model := List.filter (( <> ) a) !model;
              true
            end
            else if List.mem a !model then true
            else begin
              let v = Cachebox.add early a in
              Option.iter (fun v -> model := List.filter (( <> ) v) !model) v;
              model := a :: !model;
              Cachebox.add late a = v
            end
          in
          same_victim && agree !model)
        ops)

(* A cache size outside [1, Cachebox.max_capacity] (the slot numbers an
   index cell packs) is refused at [create], naming the field; both bounds
   are accepted and run. *)
let test_cache_size_guard () =
  let cfg = Machine.config_scaled () in
  let top = Cachebox.max_capacity in
  List.iter
    (fun (field, n, cfg) ->
      let name = Printf.sprintf "%s = %d" field n in
      if n >= 1 && n <= top then begin
        let m = Machine.create cfg in
        let a = Machine.alloc m Machine.Interleave ~lines:130 in
        for i = 0 to 129 do
          ignore (Machine.access m ~now:i ~thread:(i mod 80) ~addr:(a + i) ~kind:Machine.Write)
        done;
        Alcotest.(check (result unit string)) name (Ok ()) (Machine.check_presence m)
      end
      else
        Alcotest.check_raises name
          (Invalid_argument (Printf.sprintf "Machine.create: %s = %d outside [1, %d]" field n top))
          (fun () -> ignore (Machine.create cfg)))
    (List.concat_map
       (fun n ->
         [
           ("priv_lines", n, { cfg with Machine.priv_lines = n });
           ("llc_lines", n, { cfg with Machine.llc_lines = n });
           ("tlb_entries", n, { cfg with Machine.tlb_entries = n });
         ])
       [ min_int; -1; 0; 1; top; top + 1; max_int ])

let mk_machine () = Machine.create Machine.config_default

let kinds = [| Machine.Read; Machine.Write; Machine.Rmw |]

(* The directory's presence masks are the only membership test on the
   access path, so they must agree with the cache boxes after every access.
   Capacities of a few lines keep private, LLC and TLB evictions constant;
   the 160 lines span three pages and both allocation policies. *)
let qcheck_presence_invariant =
  QCheck.Test.make ~name:"presence masks agree with the cache boxes" ~count:60
    QCheck.(
      triple bool bool
        (list_of_size Gen.(1 -- 120) (triple (int_bound 79) (int_bound 159) (int_bound 2))))
    (fun (small, bw, trace) ->
      let topo = if small then Topology.small else Topology.default in
      let costs =
        if bw then { Costs.default with Costs.bw = Costs.bw_default } else Costs.default
      in
      let cfg = { Machine.topo; costs; priv_lines = 4; llc_lines = 8; tlb_entries = 2 } in
      let m = Machine.create cfg in
      let base = Machine.alloc m (Machine.On_node 0) ~lines:100 in
      ignore (Machine.alloc m Machine.Interleave ~lines:60);
      let nthreads = Topology.nthreads topo in
      List.iteri
        (fun now (thread, off, k) ->
          let thread = thread mod nthreads in
          ignore (Machine.access m ~now ~thread ~addr:(base + off) ~kind:kinds.(k));
          match Machine.check_presence m with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "after access %d: %s" now e)
        trace;
      true)

(* Presence masks are ints: a topology with more cores or sockets than an
   int has bits is refused at [create]; one that fits works up to the top
   bit. *)
let test_mask_width_guard () =
  let topo sockets cores_per_socket =
    { Topology.sockets; cores_per_socket; threads_per_core = 2; ghz = 2.0 }
  in
  List.iter
    (fun (name, topo, fits) ->
      let cfg = { (Machine.config_scaled ()) with Machine.topo } in
      match Machine.create cfg with
      | exception Invalid_argument _ -> Alcotest.(check bool) name fits false
      | m ->
          Alcotest.(check bool) name fits true;
          let a = Machine.alloc m Machine.Interleave ~lines:2 in
          let last = Topology.nthreads topo - 1 in
          List.iter
            (fun (thread, kind) -> ignore (Machine.access m ~now:0 ~thread ~addr:a ~kind))
            [ (last, Machine.Write); (0, Machine.Read); (last, Machine.Read); (0, Machine.Write) ];
          Alcotest.(check (result unit string)) (name ^ " presence") (Ok ())
            (Machine.check_presence m))
    [
      ("paper machine", Topology.default, true);
      ("small machine", Topology.small, true);
      ("one core per bit", topo 1 Sys.int_size, true);
      ("one socket per bit", topo Sys.int_size 1, true);
      ("one core too many", topo 1 (Sys.int_size + 1), false);
      ("one socket too many", topo (Sys.int_size + 1) 1, false);
      ("cores past the mask across sockets", topo 8 8, false);
    ]

let test_alloc_homes () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 2) ~lines:10 in
  for i = 0 to 9 do
    Alcotest.(check int) "homed on node 2" 2 (Machine.home_of m (a + i))
  done;
  let b = Machine.alloc m Machine.Interleave ~lines:8 in
  let homes = List.init 8 (fun i -> Machine.home_of m (b + i)) in
  Alcotest.(check (list int)) "interleaved" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes

(* A bad [alloc] is refused at the call: a node past the sockets used to
   fail on the first access, far away, and with region runs it could have
   extended another node's region. Each refusal consumes no address; the
   smallest legal call is accepted. *)
let test_alloc_rejects_bad () =
  List.iter
    (fun (name, pol, lines, legal) ->
      let m = mk_machine () in
      match Machine.alloc m pol ~lines with
      | exception Invalid_argument _ ->
          Alcotest.(check bool) (name ^ " refused") legal false;
          Alcotest.(check int) (name ^ " consumed nothing") 0
            (Machine.alloc m Machine.Interleave ~lines:1)
      | base ->
          Alcotest.(check bool) (name ^ " accepted") legal true;
          let home = match pol with Machine.On_node n -> n | Machine.Interleave -> 0 in
          Alcotest.(check int) (name ^ " homed") home (Machine.home_of m base))
    [
      ("no lines", Machine.On_node 0, 0, false);
      ("negative lines", Machine.Interleave, -1, false);
      ("node past the sockets", Machine.On_node 4, 1, false);
      ("negative node", Machine.On_node (-1), 1, false);
      ("one line on the last node", Machine.On_node 3, 1, true);
      ("one interleaved line", Machine.Interleave, 1, true);
    ]

(* Consecutive allocations on one node share a region; interleaved ones
   never do, since their homes stripe from their own base. Every address
   must still home as its own allocation says, across directory chunks,
   and the first address past the last allocation must still be refused. *)
let qcheck_region_runs =
  QCheck.Test.make ~name:"region runs home every address like its allocation" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 24) (pair (int_bound 4) (oneof [ int_range 1 8; int_range 1 4000 ])))
    (fun allocs ->
      let m = mk_machine () in
      let sockets = topo.Topology.sockets in
      let model =
        List.map
          (fun (node, lines) ->
            let pol = if node = sockets then Machine.Interleave else Machine.On_node node in
            (Machine.alloc m pol ~lines, lines, pol))
          allocs
      in
      List.iter
        (fun (base, lines, pol) ->
          for a = base to base + lines - 1 do
            let want =
              match pol with Machine.On_node n -> n | Machine.Interleave -> (a - base) mod sockets
            in
            let got = Machine.home_of m a in
            if got <> want then QCheck.Test.fail_reportf "address %d homed on %d, not %d" a got want
          done)
        model;
      let next = List.fold_left (fun acc (_, lines, _) -> acc + lines) 0 model in
      match Machine.home_of m next with
      | exception Invalid_argument _ -> true
      | h -> QCheck.Test.fail_reportf "address %d past the last allocation homed on %d" next h)

let test_access_costs_ordering () =
  let m = mk_machine () in
  let costs = (Machine.config m).Machine.costs in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  (* First access by a socket-0 thread: page walk + local DRAM. *)
  let c1 = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "cold read = walk + local DRAM"
    (costs.Costs.walk_local + costs.Costs.dram_local)
    c1;
  (* Second access: TLB and private cache hit. *)
  let c2 = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "warm read = private hit" costs.Costs.priv_hit c2;
  (* Read by another thread on the same socket (different core): its own
     TLB is cold, the data comes from the shared LLC. *)
  let c3 = Machine.access m ~now:0 ~thread:4 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "same-socket read = walk + LLC hit"
    (costs.Costs.walk_local + costs.Costs.llc_hit)
    c3;
  (* Read by a remote-socket thread: remote transfer, dearer than local LLC. *)
  let remote_thread = 2 * Topology.default.Topology.cores_per_socket * 2 in
  let c4 = Machine.access m ~now:0 ~thread:remote_thread ~addr:a ~kind:Machine.Read in
  Alcotest.(check bool) "remote read dearer than local LLC" true (c4 > c3)

let test_write_invalidates_readers () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read);
  ignore (Machine.access m ~now:0 ~thread:40 ~addr:a ~kind:Machine.Read);
  (* thread 40 = socket 2 core 20 *)
  let inv_before = Stats.get (Machine.stats m) "invalidations" in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write);
  let inv_after = Stats.get (Machine.stats m) "invalidations" in
  Alcotest.(check bool) "write caused invalidation" true (inv_after > inv_before);
  (* The remote reader now misses again. *)
  let costs = (Machine.config m).Machine.costs in
  let c = Machine.access m ~now:0 ~thread:40 ~addr:a ~kind:Machine.Read in
  Alcotest.(check bool) "reader must re-fetch" true (c > costs.Costs.priv_hit)

let test_write_upgrade_cheaper_than_remote () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read);
  (* Upgrade in place: have the line shared, then write it. *)
  let up = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write in
  let m2 = mk_machine () in
  let b = Machine.alloc m2 (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m2 ~now:0 ~thread:0 ~addr:b ~kind:Machine.Write);
  let remote_write = Machine.access m2 ~now:0 ~thread:40 ~addr:b ~kind:Machine.Write in
  Alcotest.(check bool) "upgrade cheaper than remote write" true (up < remote_write)

let test_rmw_dearer_than_write () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:2 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write);
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + 1) ~kind:Machine.Write);
  let w = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write in
  let r = Machine.access m ~now:0 ~thread:0 ~addr:(a + 1) ~kind:Machine.Rmw in
  Alcotest.(check bool) "rmw adds cost" true (r > w)

let test_capacity_misses () =
  (* Touch far more lines than the private cache holds: later re-touches miss. *)
  let cfg = { Machine.config_default with Machine.priv_lines = 64; llc_lines = 128 } in
  let m = Machine.create cfg in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1024 in
  for i = 0 to 1023 do
    ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
  done;
  let misses0 = Stats.get (Machine.stats m) "llc_misses" in
  (* Second sweep: working set exceeds LLC, so misses keep accruing. *)
  for i = 0 to 1023 do
    ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
  done;
  let misses1 = Stats.get (Machine.stats m) "llc_misses" in
  Alcotest.(check bool) "capacity misses on re-sweep" true (misses1 - misses0 > 512)

let test_small_working_set_hits () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:16 in
  for i = 0 to 15 do
    ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
  done;
  let before = Stats.get (Machine.stats m) "priv_hits" in
  for _ = 1 to 10 do
    for i = 0 to 15 do
      ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
    done
  done;
  let after = Stats.get (Machine.stats m) "priv_hits" in
  Alcotest.(check int) "all re-touches are private hits" 160 (after - before)

let test_tlb_miss_and_reach () =
  let cfg = { Machine.config_default with Machine.tlb_entries = 2 } in
  let m = Machine.create cfg in
  (* 4 pages = 256 lines; only 2 TLB entries -> cyclic sweep keeps missing *)
  let a = Machine.alloc m (Machine.On_node 0) ~lines:256 in
  for sweep = 1 to 3 do
    ignore sweep;
    for page = 0 to 3 do
      ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + (64 * page)) ~kind:Machine.Read)
    done
  done;
  let misses = Dps_simcore.Stats.get (Machine.stats m) "tlb_misses" in
  Alcotest.(check bool) (Printf.sprintf "TLB thrashes (%d misses)" misses) true (misses >= 8)

let test_tlb_remote_walk_dearer () =
  let m = mk_machine () in
  let costs = (Machine.config m).Machine.costs in
  let local = Machine.alloc m (Machine.On_node 0) ~lines:64 in
  let remote = Machine.alloc m (Machine.On_node 3) ~lines:64 in
  let c_local = Machine.access m ~now:0 ~thread:0 ~addr:local ~kind:Machine.Read in
  let c_remote = Machine.access m ~now:0 ~thread:0 ~addr:remote ~kind:Machine.Read in
  Alcotest.(check int) "local walk + local dram"
    (costs.Costs.walk_local + costs.Costs.dram_local)
    c_local;
  Alcotest.(check int) "remote walk + remote dram"
    (costs.Costs.walk_remote + costs.Costs.dram_remote)
    c_remote

let test_write_queueing () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  (* two writers from different sockets at the same instant: the second
     queues behind the first ownership transfer *)
  let c1 = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write in
  let c2 = Machine.access m ~now:0 ~thread:40 ~addr:a ~kind:Machine.Write in
  Alcotest.(check bool) "second write queues" true (c2 > c1);
  Alcotest.(check bool) "queueing counted" true
    (Dps_simcore.Stats.get (Machine.stats m) "write_queueing" >= 1);
  (* much later, no queueing *)
  let c3 = Machine.access m ~now:1_000_000 ~thread:0 ~addr:a ~kind:Machine.Write in
  Alcotest.(check bool) "no queue when idle" true (c3 < c2)

let test_reads_do_not_queue () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write);
  (* concurrent readers on distinct cores serve in parallel: same cost *)
  let r1 = Machine.access m ~now:0 ~thread:8 ~addr:a ~kind:Machine.Read in
  let r2 = Machine.access m ~now:0 ~thread:12 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "parallel reads" r1 r2

let test_fresh_stats_empty () =
  Alcotest.(check (list (pair string int)))
    "no counters on a fresh machine" []
    (Stats.to_list (Machine.stats (mk_machine ())))

(* The stats handle taken before a run reads live counts after it: the
   benchmark reads [accesses] this way. *)
let test_stats_live () =
  let m = mk_machine () in
  let st = Machine.stats m in
  let before = Stats.get st "accesses" in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:8 in
  let sched = Dps_sthread.Sthread.create m in
  Dps_sthread.Sthread.spawn sched ~hw:0 (fun () ->
      for i = 0 to 7 do
        Dps_sthread.Sthread.read (a + i);
        Dps_sthread.Sthread.read (a + i)
      done);
  Dps_sthread.Sthread.run sched;
  Alcotest.(check int) "accesses counted live" 16 (Stats.get st "accesses" - before);
  Alcotest.(check int) "re-reads hit" 8 (Stats.get st "priv_hits")

let test_work_cost_dilation () =
  let m = mk_machine () in
  Alcotest.(check int) "solo" 100 (Machine.work_cost m ~thread:0 100);
  Machine.set_active m ~thread:1 true;
  Alcotest.(check bool) "dilated with sibling" true (Machine.work_cost m ~thread:0 100 > 100);
  Machine.set_active m ~thread:1 false;
  Alcotest.(check int) "solo again" 100 (Machine.work_cost m ~thread:0 100)

let test_many_regions_lookup () =
  let m = mk_machine () in
  let bases =
    Array.init 200 (fun i -> Machine.alloc m (Machine.On_node (i mod 4)) ~lines:(1 + (i mod 7)))
  in
  Array.iteri
    (fun i base ->
      Alcotest.(check int) "first line homed right" (i mod 4) (Machine.home_of m base);
      let last = base + (i mod 7) in
      Alcotest.(check int) "last line homed right" (i mod 4) (Machine.home_of m last))
    bases

let test_unallocated_access_rejected () =
  let m = mk_machine () in
  Alcotest.check_raises "unallocated address"
    (Invalid_argument "Machine: access to unallocated address 999")
    (fun () -> ignore (Machine.access m ~now:0 ~thread:0 ~addr:999 ~kind:Machine.Read))

let test_cycles_to_seconds () =
  let m = mk_machine () in
  Alcotest.(check (float 1e-12)) "2 GHz" 1e-9 (Machine.cycles_to_seconds m 2)

let suite =
  [
    ("topology counts", `Quick, test_topology_counts);
    ("topology mapping", `Quick, test_topology_mapping);
    ("placement minimal sockets", `Quick, test_placement_minimal_sockets);
    ("placement hyperthreads", `Quick, test_placement_spreads_then_hyperthreads);
    ("placement full", `Quick, test_placement_full);
    ("localities", `Quick, test_localities);
    ("cachebox basic", `Quick, test_cachebox_basic);
    ("cachebox no duplicate", `Quick, test_cachebox_no_duplicate);
    QCheck_alcotest.to_alcotest qcheck_cachebox_capacity;
    QCheck_alcotest.to_alcotest qcheck_cachebox_lazy_index;
    ("cache size guard", `Quick, test_cache_size_guard);
    ("alloc homes", `Quick, test_alloc_homes);
    ("alloc rejects bad arguments", `Quick, test_alloc_rejects_bad);
    QCheck_alcotest.to_alcotest qcheck_region_runs;
    ("access cost ordering", `Quick, test_access_costs_ordering);
    ("write invalidates readers", `Quick, test_write_invalidates_readers);
    ("write upgrade cheap", `Quick, test_write_upgrade_cheaper_than_remote);
    ("rmw dearer than write", `Quick, test_rmw_dearer_than_write);
    ("capacity misses", `Quick, test_capacity_misses);
    ("small working set hits", `Quick, test_small_working_set_hits);
    ("tlb miss and reach", `Quick, test_tlb_miss_and_reach);
    ("tlb remote walk dearer", `Quick, test_tlb_remote_walk_dearer);
    ("write queueing", `Quick, test_write_queueing);
    ("reads do not queue", `Quick, test_reads_do_not_queue);
    ("fresh stats empty", `Quick, test_fresh_stats_empty);
    ("stats read live", `Quick, test_stats_live);
    ("work cost dilation", `Quick, test_work_cost_dilation);
    ("many regions lookup", `Quick, test_many_regions_lookup);
    ("unallocated access rejected", `Quick, test_unallocated_access_rejected);
    ("cycles to seconds", `Quick, test_cycles_to_seconds);
    QCheck_alcotest.to_alcotest qcheck_presence_invariant;
    ("mask width guard", `Quick, test_mask_width_guard);
  ]
