(* Tests for the simulation support kit: PRNG, event heap and calendar,
   histograms, counters. *)

module Prng = Dps_simcore.Prng
module Heap = Dps_simcore.Heap
module Calendar = Dps_simcore.Calendar
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
  Alcotest.(check int) "empty" max_int (Heap.next_time h);
  List.iter (fun time -> Heap.push h ~time ()) [ 42; 7; 19 ];
  Alcotest.(check int) "min" 7 (Heap.next_time h);
  Heap.take h;
  Alcotest.(check int) "next min" 19 (Heap.next_time h)

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

let w = Calendar.window

let drain_calendar c =
  let rec go acc = if Calendar.is_empty c then List.rev acc else go (Calendar.take c :: acc) in
  go []

(* An entry pushed while its time was beyond the window waits in the
   overflow heap; a later push to the same time, once the window covers it,
   goes straight to the bucket. They still come out in push order. *)
let test_calendar_overflow_then_direct () =
  let c = Calendar.create () in
  let edge = w + 5 in
  Calendar.push c ~time:edge "a";
  Calendar.push c ~time:10 "x";
  Calendar.push c ~time:edge "b";
  Alcotest.(check string) "window entry first" "x" (Calendar.take c);
  Calendar.push c ~time:edge "c";
  Calendar.push c ~time:(edge - 1) "y";
  Calendar.push c ~time:edge "d";
  Alcotest.(check int) "next_time" (edge - 1) (Calendar.next_time c);
  Alcotest.(check (list string)) "push order" [ "y"; "a"; "b"; "c"; "d" ] (drain_calendar c)

(* With the window empty, [take] jumps it to the earliest overflow entry. *)
let test_calendar_jump_empty_window () =
  let c = Calendar.create () in
  Calendar.push c ~time:((3 * w) + 7) 2;
  Calendar.push c ~time:((3 * w) + 7) 3;
  Calendar.push c ~time:((9 * w) + 1) 4;
  Alcotest.(check int) "next_time" ((3 * w) + 7) (Calendar.next_time c);
  Alcotest.(check int) "first" 2 (Calendar.take c);
  Calendar.push c ~time:((3 * w) + 7) 5;
  Alcotest.(check (list int)) "rest" [ 3; 5; 4 ] (drain_calendar c);
  Alcotest.(check int) "empty" max_int (Calendar.next_time c);
  let take_empty () = ignore (Calendar.take c) in
  Alcotest.check_raises "take of empty" (Invalid_argument "Calendar.take: empty queue") take_empty

(* Pushes may not go below the last taken time; [next_time] only peeks, so
   after a peek at a later entry a push at the last taken time still fits. *)
let test_calendar_monotone_contract () =
  let c = Calendar.create () in
  Calendar.push c ~time:100 "a";
  Calendar.push c ~time:(100 + (2 * w)) "far";
  Alcotest.(check string) "take" "a" (Calendar.take c);
  Alcotest.(check int) "peek" (100 + (2 * w)) (Calendar.next_time c);
  Calendar.push c ~time:100 "b";
  Alcotest.(check int) "push at the last taken time" 100 (Calendar.next_time c);
  let push_late () = Calendar.push c ~time:99 "late" in
  let late = Invalid_argument "Calendar.push: time before the last taken time" in
  Alcotest.check_raises "push before the last taken time" late push_late;
  Alcotest.(check (list string)) "order" [ "b"; "far" ] (drain_calendar c)

(* As for the heap: a taken payload must become garbage, whether it sat in
   a bucket all along or was moved in from the overflow heap. *)
let[@inline never] cal_push_watched c wk ~time =
  let v = ref (Sys.opaque_identity 42) in
  Weak.set wk 0 (Some v);
  Calendar.push c ~time v

let[@inline never] cal_take_one c = Alcotest.(check int) "taken payload" 42 !(Calendar.take c)

let test_calendar_no_retention () =
  List.iter
    (fun time ->
      let c = Calendar.create () in
      let wk = Weak.create 1 in
      cal_push_watched c wk ~time;
      Calendar.push c ~time:(time + 1) (ref 0);
      cal_take_one c;
      Gc.full_major ();
      let name = Printf.sprintf "payload at %d collected" time in
      Alcotest.(check bool) name false (Weak.check wk 0);
      Alcotest.(check int) "the other still queued" 1 (Calendar.size c))
    [ 1; w + 1 ]

(* Model check against the heap's (time, insertion order) reference, with
   the scheduler's contract: every push is at or after the last taken time.
   Delays cluster at the window's edges and multiples, [C_again] repeats the
   last pushed time so that equal times straddle the edge (pushed once to
   the overflow heap, again straight into the bucket), and [C_peek] checks
   that [next_time] does not move the push bound. *)
type cal_op = C_push of int | C_again | C_peek | C_take

let cal_delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (3, return 1);
        (6, 2 -- 15);
        (2, return (w - 1));
        (2, return w);
        (2, return (w + 1));
        (2, map2 (fun k r -> (k * w) + r) (1 -- 3) (0 -- (w - 1)));
      ])

let cal_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> C_push d) cal_delay_gen);
        (2, return C_again);
        (1, return C_peek);
        (4, return C_take);
      ])

let show_cal_op = function
  | C_push d -> Printf.sprintf "Push %d" d
  | C_again -> "Again"
  | C_peek -> "Peek"
  | C_take -> "Take"

let qcheck_calendar_model =
  QCheck.Test.make ~name:"calendar agrees with (time, insertion order) model" ~count:60
    (QCheck.make
       ~print:QCheck.Print.(list show_cal_op)
       QCheck.Gen.(list_size (1000 -- 2000) cal_op_gen))
    (fun ops ->
      let c = Calendar.create () in
      let model = ref Ref_set.empty and pushed = ref 0 in
      let last_taken = ref 0 and last_pushed = ref 0 and overflowed = ref 0 in
      let push time =
        if time - !last_taken >= w then incr overflowed;
        Calendar.push c ~time (ref !pushed);
        model := Ref_set.add (time, !pushed) !model;
        last_pushed := time;
        incr pushed
      in
      let check_next () =
        let expect = if Ref_set.is_empty !model then max_int else fst (Ref_set.min_elt !model) in
        if Calendar.next_time c <> expect then
          QCheck.Test.fail_reportf "next_time %d, expected %d" (Calendar.next_time c) expect
      in
      let take () =
        check_next ();
        let ((time, idx) as e) = Ref_set.min_elt !model in
        model := Ref_set.remove e !model;
        let got = !(Calendar.take c) in
        if got <> idx then QCheck.Test.fail_reportf "got payload %d, expected %d" got idx;
        last_taken := time
      in
      let step = function
        | C_push d -> push (!last_taken + d)
        | C_again -> push (max !last_pushed !last_taken)
        | C_peek -> check_next ()
        | C_take ->
            if Ref_set.is_empty !model then begin
              check_next ();
              match Calendar.take c with
              | _ -> QCheck.Test.fail_report "take of empty returned"
              | exception Invalid_argument _ -> ()
            end
            else take ()
      in
      List.iter step ops;
      while not (Ref_set.is_empty !model) do
        take ()
      done;
      Calendar.is_empty c && !overflowed > 0)

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

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng float bounds", `Quick, test_prng_float_bounds);
    ("prng below probability", `Quick, test_prng_below_probability);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap grow", `Quick, test_heap_grow);
    ("heap min_time", `Quick, test_heap_min_time);
    ("heap no retention", `Quick, test_heap_no_retention);
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    ("calendar overflow then direct push", `Quick, test_calendar_overflow_then_direct);
    ("calendar jump over empty window", `Quick, test_calendar_jump_empty_window);
    ("calendar monotone contract", `Quick, test_calendar_monotone_contract);
    ("calendar no retention", `Quick, test_calendar_no_retention);
    QCheck_alcotest.to_alcotest qcheck_calendar_model;
    ("histogram percentiles", `Quick, test_histogram_percentiles);
    ("histogram mean", `Quick, test_histogram_mean);
    ("histogram empty", `Quick, test_histogram_empty);
    ("histogram large values", `Quick, test_histogram_large_values);
    ("stats counters", `Quick, test_stats);
    ("stats counter cells", `Quick, test_stats_counter_cells);
    QCheck_alcotest.to_alcotest qcheck_histogram_percentile_bounds;
  ]
