(* Tests for every concurrent set implementation: sequential equivalence
   with a model, concurrent disjoint and conflicting workloads with per-key
   consistency accounting, and structural invariants at quiescence. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng

module type SET = Dps_ds.Set_intf.SET

let sets : (module SET) list =
  [
    (module Dps_ds.Ll_coarse);
    (module Dps_ds.Ll_lazy);
    (module Dps_ds.Ll_michael);
    (module Dps_ds.Ll_optik);
    (module Dps_ds.Rlu_list);
    (module Dps_ds.Bst_tk);
    (module Dps_ds.Bst_ellen);
    (module Dps_ds.Bst_internal_lf);
    (module Dps_ds.Bst_bronson);
    (module Dps_ds.Sl_herlihy);
    (module Dps_ds.Sl_fraser);
    (module Dps_ds.Hashtable);
    (module Dps_parsec.Parsec_list);
  ]

let fresh_alloc () =
  let m = Machine.create Machine.config_default in
  (Sthread.create m, Alloc.create m ~cold:Alloc.Spread)

(* --- sequential equivalence with a Map model (cold path) --- *)

let sequential_ops (module S : SET) () =
  let _, alloc = fresh_alloc () in
  let t = S.create alloc in
  let model = ref [] in
  let prng = Prng.create 99L in
  for _ = 1 to 2000 do
    let key = 1 + Prng.int prng 50 in
    match Prng.int prng 3 with
    | 0 ->
        let expected = not (List.mem_assoc key !model) in
        let got = S.insert t ~key ~value:(key * 10) in
        if got <> expected then Alcotest.failf "%s: insert %d -> %b" S.name key got;
        if got then model := (key, key * 10) :: !model
    | 1 ->
        let expected = List.mem_assoc key !model in
        let got = S.remove t key in
        if got <> expected then Alcotest.failf "%s: remove %d -> %b" S.name key got;
        if got then model := List.remove_assoc key !model
    | _ ->
        let expected = List.assoc_opt key !model in
        let got = S.lookup t key in
        if got <> expected then Alcotest.failf "%s: lookup %d mismatch" S.name key
  done;
  S.check_invariants t;
  let final = List.sort compare !model in
  Alcotest.(check (list (pair int int))) (S.name ^ " final contents") final (S.to_list t)

(* --- cold population: every key, valued as itself, charging nothing --- *)

let cold_populate (module S : SET) () =
  let s, alloc = fresh_alloc () in
  let t = S.create alloc in
  let n = 1000 in
  let keys = Array.init n (fun i -> (2 * i) + 1) in
  let prng = Prng.create 5L in
  for i = n - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let k = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- k
  done;
  S.populate t keys;
  S.check_invariants t;
  Alcotest.(check (list (pair int int)))
    (S.name ^ " populated contents")
    (List.init n (fun i -> ((2 * i) + 1, (2 * i) + 1)))
    (S.to_list t);
  let accesses = Dps_simcore.Stats.get (Machine.stats (Sthread.machine s)) "accesses" in
  Alcotest.(check int) (S.name ^ " populate charges nothing") 0 accesses

(* --- the sentinel keys: every operation rejects them, changing nothing --- *)

let sentinel_keys (module S : SET) () =
  let _, alloc = fresh_alloc () in
  let t = S.create alloc in
  ignore (S.insert t ~key:5 ~value:5);
  let accepted =
    List.concat_map
      (fun (op, run) ->
        List.filter_map
          (fun key ->
            match run key with
            | () -> Some (Printf.sprintf "%s %d" op key)
            | exception Invalid_argument _ -> None)
          [ min_int; max_int ])
      [
        ("insert", fun key -> ignore (S.insert t ~key ~value:key));
        ("remove", fun key -> ignore (S.remove t key));
        ("lookup", fun key -> ignore (S.lookup t key));
      ]
  in
  Alcotest.(check (list string)) (S.name ^ " accepted sentinel keys") [] accepted;
  S.check_invariants t;
  Alcotest.(check (list (pair int int))) (S.name ^ " contents") [ (5, 5) ] (S.to_list t)

(* --- concurrent inserts over disjoint ranges: nothing may be lost --- *)

let concurrent_disjoint (module S : SET) () =
  let s, alloc = fresh_alloc () in
  let t = S.create alloc in
  let threads = 8 and per = 30 in
  for tid = 0 to threads - 1 do
    Sthread.spawn s ~hw:(tid * 8 mod 80) (fun () ->
        let p = Sthread.self_prng () in
        for i = 0 to per - 1 do
          let key = 1 + (tid * per) + i in
          if not (S.insert t ~key ~value:key) then
            Alcotest.failf "%s: disjoint insert %d failed" S.name key;
          if Prng.bool p then Sthread.work 50
        done)
  done;
  Sthread.run s;
  S.check_invariants t;
  let expected = List.init (threads * per) (fun i -> (i + 1, i + 1)) in
  Alcotest.(check (list (pair int int))) (S.name ^ " all present") expected (S.to_list t)

(* --- concurrent conflicting ops: per-key linearizable accounting ---
   For every key: successful inserts minus successful removes must equal
   final membership (0 or 1). Lost updates or double removes break this.
   The machine seed varies cache evictions and so the interleaving. *)

let run_conflict (module S : SET) ~seed ~threads ~ops ~key_range =
  let m = Machine.create ~seed Machine.config_default in
  let s = Sthread.create m in
  let alloc = Alloc.create m ~cold:Alloc.Spread in
  let t = S.create alloc in
  let ins = Array.make (key_range + 1) 0 and rem = Array.make (key_range + 1) 0 in
  for tid = 0 to threads - 1 do
    Sthread.spawn s ~hw:(tid * 8 mod 80) (fun () ->
        let p = Sthread.self_prng () in
        for _ = 1 to ops do
          let key = 1 + Prng.int p key_range in
          if Prng.bool p then begin
            if S.insert t ~key ~value:key then ins.(key) <- ins.(key) + 1
          end
          else if S.remove t key then rem.(key) <- rem.(key) + 1
        done)
  done;
  Sthread.run s;
  S.check_invariants t;
  let contents = S.to_list t in
  let violation = ref None in
  for key = 1 to key_range do
    let present = List.mem_assoc key contents in
    let balance = ins.(key) - rem.(key) in
    if balance < 0 || balance > 1 then
      violation := Some (Printf.sprintf "key %d balance %d" key balance)
    else if (balance = 1) <> present then
      violation := Some (Printf.sprintf "key %d balance %d but present=%b" key balance present)
  done;
  !violation

let concurrent_conflict (module S : SET) () =
  match run_conflict (module S) ~seed:42L ~threads:10 ~ops:60 ~key_range:24 with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" S.name msg

let qcheck_conflict_seeds (module S : SET) =
  QCheck.Test.make
    ~name:(S.name ^ " per-key balance over random interleavings")
    ~count:8 QCheck.small_nat
    (fun seed ->
      match
        run_conflict (module S) ~seed:(Int64.of_int (seed + 1)) ~threads:8 ~ops:30 ~key_range:12
      with
      | None -> true
      | Some _ -> false)

(* --- concurrent lookups while updating must terminate and not crash --- *)

let concurrent_readers (module S : SET) () =
  let s, alloc = fresh_alloc () in
  let t = S.create alloc in
  for k = 1 to 40 do
    ignore (S.insert t ~key:k ~value:k)
  done;
  let hits = ref 0 in
  for tid = 0 to 7 do
    Sthread.spawn s ~hw:(tid * 10 mod 80) (fun () ->
        let p = Sthread.self_prng () in
        for _ = 1 to 50 do
          let key = 1 + Prng.int p 60 in
          match Prng.int p 4 with
          | 0 -> ignore (S.insert t ~key ~value:key)
          | 1 -> ignore (S.remove t key)
          | _ -> if S.lookup t key <> None then incr hits
        done)
  done;
  Sthread.run s;
  S.check_invariants t;
  Alcotest.(check bool) (S.name ^ " lookups saw data") true (!hits > 0)

(* A small key range, plus the keys just inside the sentinels *)
let model_key =
  QCheck.Gen.(frequency [ (8, int_range 1 30); (2, oneofl [ min_int + 1; max_int - 1 ]) ])

let qcheck_sequential (module S : SET) =
  let op_gen =
    QCheck.Gen.(
      pair (int_range 0 2) model_key |> list_size (int_range 1 200))
  in
  QCheck.Test.make
    ~name:(S.name ^ " matches model (random programs)")
    ~count:30
    (QCheck.make op_gen)
    (fun ops ->
      let _, alloc = fresh_alloc () in
      let t = S.create alloc in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
              let expected = not (M.mem key !model) in
              let got = S.insert t ~key ~value:key in
              if got then model := M.add key key !model;
              got = expected
          | 1 ->
              let expected = M.mem key !model in
              let got = S.remove t key in
              if got then model := M.remove key !model;
              got = expected
          | _ -> S.lookup t key = M.find_opt key !model)
        ops
      && S.to_list t = M.bindings !model)

(* --- priority queue --- *)

let test_pq_sequential () =
  let _, alloc = fresh_alloc () in
  let pq = Dps_ds.Pq_shavit.create alloc in
  List.iter
    (fun k -> ignore (Dps_ds.Pq_shavit.insert pq ~key:k ~value:(2 * k)))
    [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (option (pair int int))) "min" (Some (1, 2)) (Dps_ds.Pq_shavit.find_min pq);
  let order = ref [] in
  let rec drain () =
    match Dps_ds.Pq_shavit.remove_min pq with
    | None -> ()
    | Some (k, _) ->
        order := k :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending drain" [ 1; 3; 5; 7; 9 ] (List.rev !order)

let test_pq_concurrent () =
  let s, alloc = fresh_alloc () in
  let pq = Dps_ds.Pq_shavit.create alloc in
  let removed = ref [] in
  let threads = 8 and per = 25 in
  for tid = 0 to threads - 1 do
    Sthread.spawn s ~hw:(tid * 10 mod 80) (fun () ->
        for i = 0 to per - 1 do
          let key = 1 + (tid * per) + i in
          ignore (Dps_ds.Pq_shavit.insert pq ~key ~value:key);
          if i mod 2 = 1 then
            match Dps_ds.Pq_shavit.remove_min pq with
            | Some (k, _) -> removed := k :: !removed
            | None -> Alcotest.fail "remove_min on non-empty pq"
        done)
  done;
  Sthread.run s;
  Dps_ds.Pq_shavit.check_invariants pq;
  let remaining = List.map fst (Dps_ds.Pq_shavit.to_list pq) in
  let all = List.sort compare (!removed @ remaining) in
  let expected = List.init (threads * per) (fun i -> i + 1) in
  Alcotest.(check (list int)) "removed + remaining = inserted" expected all;
  (* no duplicates in removed *)
  let sorted = List.sort compare !removed in
  let rec nodup = function
    | a :: (b :: _ as rest) -> a <> b && nodup rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "no double remove_min" true (nodup sorted)

(* --- read/write object --- *)

let test_rw_object () =
  let m = Machine.create Machine.config_default in
  let s = Sthread.create m in
  let o = Dps_ds.Rw_object.create m Machine.Interleave ~objects:8 ~lines:4 ~write_lines:2 in
  Alcotest.(check int) "object count" 8 (Dps_ds.Rw_object.nobjects o);
  Sthread.spawn s ~hw:0 (fun () ->
      for i = 0 to 7 do
        Dps_ds.Rw_object.operate o i;
        Dps_ds.Rw_object.scan o i
      done);
  Sthread.run s;
  let accesses = Dps_simcore.Stats.get (Machine.stats m) "accesses" in
  (* operate: 2 reads+writes + 2 reads; scan: 4 reads -> 10 accesses/object *)
  Alcotest.(check int) "charged accesses" 80 accesses

let test_rw_object_partitioned () =
  let m = Machine.create Machine.config_default in
  let o =
    Dps_ds.Rw_object.create_partitioned m ~node_of:(fun i -> i mod 4) ~objects:8 ~lines:2
      ~write_lines:1
  in
  for i = 0 to 7 do
    Dps_ds.Rw_object.home_hint o i (fun base ->
        Alcotest.(check int) "homed per partition" (i mod 4) (Machine.home_of m base))
  done

(* --- RLU runtime --- *)

let test_rlu_synchronize_waits () =
  let s, alloc = fresh_alloc () in
  let rlu = Dps_ds.Rlu.create alloc in
  let reader_done_at = ref 0 and writer_done_at = ref 0 in
  Sthread.spawn s ~hw:0 (fun () ->
      Dps_ds.Rlu.reader_lock rlu;
      Sthread.work 20_000;
      Dps_ds.Rlu.reader_unlock rlu;
      reader_done_at := Sthread.time ());
  Sthread.spawn s ~hw:20 (fun () ->
      Sthread.work 100;
      (* a writer that must wait for the reader's grace period *)
      Dps_ds.Rlu.reader_lock rlu;
      Dps_ds.Rlu.writer_end_and_synchronize rlu;
      writer_done_at := Sthread.time ());
  Sthread.run s;
  Alcotest.(check bool) "synchronize outlived reader" true (!writer_done_at >= !reader_done_at)

let test_rlu_writers_no_deadlock () =
  let s, alloc = fresh_alloc () in
  let rlu = Dps_ds.Rlu.create alloc in
  let finished = ref 0 in
  for tid = 0 to 7 do
    Sthread.spawn s ~hw:(tid * 10 mod 80) (fun () ->
        for _ = 1 to 5 do
          Dps_ds.Rlu.reader_lock rlu;
          Sthread.work 200;
          Dps_ds.Rlu.writer_end_and_synchronize rlu
        done;
        incr finished)
  done;
  Sthread.run s;
  Alcotest.(check int) "all writers finished" 8 !finished

let set_cases =
  List.concat_map
    (fun (module S : SET) ->
      [
        (S.name ^ " sequential vs model", `Quick, sequential_ops (module S));
        (S.name ^ " cold populate", `Quick, cold_populate (module S));
        (S.name ^ " rejects the sentinel keys", `Quick, sentinel_keys (module S));
        (S.name ^ " concurrent disjoint", `Quick, concurrent_disjoint (module S));
        (S.name ^ " concurrent conflict", `Quick, concurrent_conflict (module S));
        QCheck_alcotest.to_alcotest (qcheck_conflict_seeds (module S));
        (S.name ^ " concurrent readers", `Quick, concurrent_readers (module S));
        QCheck_alcotest.to_alcotest (qcheck_sequential (module S));
      ])
    sets

let suite =
  set_cases
  @ [
      ("pq sequential", `Quick, test_pq_sequential);
      ("pq concurrent", `Quick, test_pq_concurrent);
      ("rw_object", `Quick, test_rw_object);
      ("rw_object partitioned", `Quick, test_rw_object_partitioned);
      ("rlu synchronize waits", `Quick, test_rlu_synchronize_waits);
      ("rlu writers no deadlock", `Quick, test_rlu_writers_no_deadlock);
    ]
