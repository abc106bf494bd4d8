(* Tests for the simulation support kit: PRNG, bitsets, event heap,
   histograms, counters. *)

module Prng = Dps_simcore.Prng
module Bitset = Dps_simcore.Bitset
module Heap = Dps_simcore.Heap
module Histogram = Dps_simcore.Histogram
module Stats = Dps_simcore.Stats

let test_prng_deterministic () =
  let a = Prng.create 1L and b = Prng.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next64 a = Prng.next64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_prng_split_independent () =
  let a = Prng.create 5L in
  let c = Prng.split a in
  let xs = List.init 32 (fun _ -> Prng.next64 a) in
  let ys = List.init 32 (fun _ -> Prng.next64 c) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let p = Prng.create 9L in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_float_bounds () =
  let p = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.float p 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.failf "out of bounds: %f" v
  done

let test_prng_below_probability () =
  let p = Prng.create 13L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.below p 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "~30%" true (frac > 0.28 && frac < 0.32)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem 42" false (Bitset.mem b 42);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal b)

let test_bitset_iter_order () =
  let b = Bitset.create 200 in
  List.iter (Bitset.add b) [ 150; 3; 77; 0; 199 ];
  let got = Bitset.fold (fun acc i -> i :: acc) [] b |> List.rev in
  Alcotest.(check (list int)) "sorted member order" [ 0; 3; 77; 150; 199 ] got

let test_bitset_clear () =
  let b = Bitset.create 70 in
  List.iter (Bitset.add b) [ 1; 2; 3; 69 ];
  Bitset.clear b;
  Alcotest.(check bool) "empty after clear" true (Bitset.is_empty b)

let test_bitset_singleton () =
  let b = Bitset.create 10 in
  Alcotest.(check (option int)) "empty" None (Bitset.singleton_or_empty b);
  Bitset.add b 7;
  Alcotest.(check (option int)) "single" (Some 7) (Bitset.singleton_or_empty b);
  Bitset.add b 2;
  Alcotest.(check (option int)) "two" None (Bitset.singleton_or_empty b)

let test_bitset_exists () =
  let b = Bitset.create 64 in
  Bitset.add b 10;
  Bitset.add b 20;
  Alcotest.(check bool) "exists even" true (Bitset.exists (fun i -> i mod 2 = 0) b);
  Alcotest.(check bool) "exists >30" false (Bitset.exists (fun i -> i > 30) b)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun (t, v) -> Heap.push h ~time:t v)
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
        out := v :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:7 v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "ties pop in push order" [ 1; 2; 3; 4; 5 ] (drain [])

let test_heap_grow () =
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.push h ~time:i i
  done;
  Alcotest.(check int) "size" 1000 (Heap.size h);
  let prev = ref (-1) in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (t, v) ->
        Alcotest.(check int) "payload = time" t v;
        if t < !prev then Alcotest.failf "out of order: %d after %d" t !prev;
        prev := t;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_min_time () =
  let h = Heap.create () in
  Alcotest.(check (option int)) "empty" None (Heap.min_time h);
  Heap.push h ~time:42 ();
  Alcotest.(check (option int)) "min" (Some 42) (Heap.min_time h)

(* A taken payload must become garbage: the slot pool clears the slot, so
   the heap does not keep dead events (and their continuations) alive. The
   push and the take sit in their own never-inlined functions so no local
   of this test still points at the payload. *)
let[@inline never] push_watched h w ~time =
  let v = ref (Sys.opaque_identity 42) in
  Weak.set w 0 (Some v);
  Heap.push h ~time v

let[@inline never] take_one h = Alcotest.(check int) "taken payload" 42 !(Heap.take h)

let test_heap_no_retention () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  push_watched h w ~time:1;
  Heap.push h ~time:2 (ref 0);
  take_one h;
  Gc.full_major ();
  Alcotest.(check bool) "taken payload collected" false (Weak.check w 0);
  Alcotest.(check int) "the other still queued" 1 (Heap.size h)

(* Model check: random interleavings of pushes (with many equal times) and
   removals against a reference ordered by (time, insertion order). Pushes
   outnumber removals three to one, so every sequence grows the heap past
   its first few capacity doublings while removals keep freeing slots for
   reuse. *)
type heap_op = Push of int | Take | Pop

let heap_op_gen =
  QCheck.Gen.(frequency [ (6, map (fun t -> Push t) (0 -- 15)); (1, return Take); (1, return Pop) ])

let show_heap_op = function Push t -> Printf.sprintf "Push %d" t | Take -> "Take" | Pop -> "Pop"

module Ref_set = Set.Make (struct
  type t = int * int (* time, insertion index *)

  let compare = compare
end)

let qcheck_heap_model =
  QCheck.Test.make ~name:"heap agrees with (time, insertion order) model" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(list show_heap_op)
       QCheck.Gen.(list_size (1000 -- 2000) heap_op_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref Ref_set.empty and pushed = ref 0 and peak = ref 0 in
      (* each payload is boxed and names its own insertion index *)
      let expect_min got =
        let ((_, idx) as e) = Ref_set.min_elt !model in
        model := Ref_set.remove e !model;
        if !got <> idx then QCheck.Test.fail_reportf "got payload %d, expected %d" !got idx
      in
      let step = function
        | Push time ->
            Heap.push h ~time (ref !pushed);
            model := Ref_set.add (time, !pushed) !model;
            incr pushed;
            peak := max !peak (Heap.size h)
        | Take ->
            if Ref_set.is_empty !model then begin
              if Heap.next_time h <> max_int then QCheck.Test.fail_report "next_time of empty";
              match Heap.take h with
              | _ -> QCheck.Test.fail_report "take of empty returned"
              | exception Invalid_argument _ -> ()
            end
            else begin
              let time, _ = Ref_set.min_elt !model in
              if Heap.next_time h <> time then QCheck.Test.fail_report "next_time";
              expect_min (Heap.take h)
            end
        | Pop -> (
            match Heap.pop h with
            | None -> if not (Ref_set.is_empty !model) then QCheck.Test.fail_report "pop: None"
            | Some (time, v) ->
                if time <> fst (Ref_set.min_elt !model) then QCheck.Test.fail_report "pop: time";
                expect_min v)
      in
      List.iter step ops;
      while not (Heap.is_empty h) do
        step Pop
      done;
      Ref_set.is_empty !model && !peak > 256)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 0.5 in
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 near 500 (got %d)" p50)
    true
    (p50 >= 450 && p50 <= 550);
  Alcotest.(check bool)
    (Printf.sprintf "p99 near 990 (got %d)" p99)
    true
    (p99 >= 950 && p99 <= 1000);
  Alcotest.(check int) "max" 1000 (Histogram.max_value h)

let test_histogram_mean () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10; 20; 30 ];
  Alcotest.(check (float 0.001)) "mean" 20.0 (Histogram.mean h)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "p99 of empty" 0 (Histogram.percentile h 0.99);
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Histogram.mean h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 3 ];
  List.iter (Histogram.add b) [ 1000; 2000 ];
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "count" 5 (Histogram.count a);
  Alcotest.(check int) "max" 2000 (Histogram.max_value a)

let test_histogram_large_values () =
  let h = Histogram.create () in
  Histogram.add h 1_000_000_000;
  Histogram.add h 5;
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p99 covers large sample" true (p99 >= 900_000_000)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 10;
  Alcotest.(check int) "a" 2 (Stats.get s "a");
  Alcotest.(check int) "b" 10 (Stats.get s "b");
  Alcotest.(check int) "missing" 0 (Stats.get s "zzz");
  Alcotest.(check (list (pair string int))) "to_list" [ ("a", 2); ("b", 10) ] (Stats.to_list s);
  Stats.reset s;
  Alcotest.(check int) "after reset" 0 (Stats.get s "a");
  Alcotest.(check (list (pair string int))) "zeroed counters omitted" [] (Stats.to_list s)

let test_stats_counter_cells () =
  let s = Stats.create () in
  let c = Stats.counter s "x" in
  Alcotest.(check (list (pair string int))) "unbumped cell omitted" [] (Stats.to_list s);
  incr c;
  Alcotest.(check int) "cell reads through get" 1 (Stats.get s "x");
  Stats.reset s;
  Alcotest.(check int) "reset zeroes the cell" 0 !c;
  c := !c + 3;
  Alcotest.(check int) "cell still live after reset" 3 (Stats.get s "x");
  Alcotest.(check bool) "same cell" true (c == Stats.counter s "x");
  Stats.add s "fresh" 5;
  Alcotest.(check int) "add creates the counter" 5 (Stats.get s "fresh");
  Alcotest.(check (list (pair string int))) "to_list" [ ("fresh", 5); ("x", 3) ] (Stats.to_list s)

let qcheck_histogram_percentile_bounds =
  QCheck.Test.make ~name:"histogram percentile bounded by max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let p v = Histogram.percentile h v in
      p 0.5 <= p 0.99 && p 0.99 <= Histogram.max_value h && p 1.0 = Histogram.max_value h)

let qcheck_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with list model" ~count:200
    QCheck.(list (pair bool (int_bound 99)))
    (fun ops ->
      let b = Bitset.create 100 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem model i) (List.init 100 Fun.id))

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng float bounds", `Quick, test_prng_float_bounds);
    ("prng below probability", `Quick, test_prng_below_probability);
    ("bitset basics", `Quick, test_bitset_basics);
    ("bitset iter order", `Quick, test_bitset_iter_order);
    ("bitset clear", `Quick, test_bitset_clear);
    ("bitset singleton", `Quick, test_bitset_singleton);
    ("bitset exists", `Quick, test_bitset_exists);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap grow", `Quick, test_heap_grow);
    ("heap min_time", `Quick, test_heap_min_time);
    ("heap no retention", `Quick, test_heap_no_retention);
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    ("histogram percentiles", `Quick, test_histogram_percentiles);
    ("histogram mean", `Quick, test_histogram_mean);
    ("histogram empty", `Quick, test_histogram_empty);
    ("histogram merge", `Quick, test_histogram_merge);
    ("histogram large values", `Quick, test_histogram_large_values);
    ("stats counters", `Quick, test_stats);
    ("stats counter cells", `Quick, test_stats_counter_cells);
    QCheck_alcotest.to_alcotest qcheck_histogram_percentile_bounds;
    QCheck_alcotest.to_alcotest qcheck_bitset_model;
  ]
