(* Front cache: host-side model tests of the version-validated presence
   cache (Sthread charges are no-ops outside simulated threads, so the
   protocol runs bare), then end-to-end coherence through a real server —
   set→get on one connection must never see a stale read, including
   across a poller kill and self-healing partition takeover. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Net = Dps_net.Net
module Wire = Dps_net.Wire
module Variants = Dps_memcached.Variants
module Server = Dps_server.Server
module Frontcache = Dps_server.Frontcache
module Faults = Dps_faults

(* --- host-side model ----------------------------------------------------- *)

(* Reference backend: a presence map plus the per-key version table the
   real backend maintains — every applied write bumps before anyone can
   observe the new state, like Variants.dps_mc with ~versions. *)
type model = { mpresent : bool array; mvers : int array }

let model n = { mpresent = Array.make n false; mvers = Array.make n 0 }

let m_set m k =
  m.mvers.(k) <- m.mvers.(k) + 1;
  m.mpresent.(k) <- true

let m_del m k =
  if m.mpresent.(k) then m.mvers.(k) <- m.mvers.(k) + 1;
  m.mpresent.(k) <- false

let mk_fc ?(entries = 8) m =
  Frontcache.create ~entries ~alloc:(fun ~lines:_ -> 0)
    ~version_of:(fun k -> m.mvers.(k))
    ()

let test_hit_skips_fetch () =
  let m = model 32 in
  let fc = mk_fc m in
  m_set m 5;
  let fetches = ref 0 in
  let fetch () =
    incr fetches;
    m.mpresent.(5)
  in
  Alcotest.(check bool) "first lookup present" true (Frontcache.lookup fc 5 ~fetch);
  Alcotest.(check int) "first lookup fetched" 1 !fetches;
  Alcotest.(check bool) "second lookup present" true (Frontcache.lookup fc 5 ~fetch);
  Alcotest.(check bool) "third lookup present" true (Frontcache.lookup fc 5 ~fetch);
  Alcotest.(check int) "hits served without fetch" 1 !fetches;
  Alcotest.(check int) "two hits counted" 2 (Frontcache.stats fc).Frontcache.hits

let test_write_invalidates () =
  let m = model 32 in
  let fc = mk_fc m in
  m_set m 7;
  ignore (Frontcache.lookup fc 7 ~fetch:(fun () -> m.mpresent.(7)));
  (* a backend write bumps the version: the resident entry must refetch,
     and a delete must become visible immediately *)
  m_del m 7;
  Alcotest.(check bool) "delete visible through cache" false
    (Frontcache.lookup fc 7 ~fetch:(fun () -> m.mpresent.(7)));
  m_set m 7;
  Alcotest.(check bool) "re-set visible through cache" true
    (Frontcache.lookup fc 7 ~fetch:(fun () -> m.mpresent.(7)));
  Alcotest.(check bool) "stale refetches counted" true
    ((Frontcache.stats fc).Frontcache.stale >= 2)

let test_invalidate_drops_entry () =
  let m = model 32 in
  let fc = mk_fc m in
  m_set m 3;
  let fetches = ref 0 in
  let fetch () =
    incr fetches;
    m.mpresent.(3)
  in
  ignore (Frontcache.lookup fc 3 ~fetch);
  Frontcache.invalidate fc 3;
  ignore (Frontcache.lookup fc 3 ~fetch);
  Alcotest.(check int) "invalidate forced a refetch" 2 !fetches;
  Alcotest.(check int) "invalidation counted" 1 (Frontcache.stats fc).Frontcache.invals

let test_admission_duel () =
  (* one slot: every key collides. A hot resident must survive one-shot
     misses; a persistent challenger must eventually out-count it. *)
  let m = model 32 in
  let fc = mk_fc ~entries:1 m in
  m_set m 1;
  m_set m 2;
  let fetches_a = ref 0 and fetches_b = ref 0 in
  let look_a () = Frontcache.lookup fc 1 ~fetch:(fun () -> incr fetches_a; m.mpresent.(1)) in
  let look_b () = Frontcache.lookup fc 2 ~fetch:(fun () -> incr fetches_b; m.mpresent.(2)) in
  ignore (look_a ());
  for _ = 1 to 3 do
    ignore (look_a ())
  done;
  (* resident freq is now 4; one challenger miss must not evict *)
  ignore (look_b ());
  ignore (look_a ());
  Alcotest.(check int) "one-shot miss did not evict the hot resident" 1 !fetches_a;
  (* the challenger keeps coming: candidate counter rises while the
     resident's decays, so it must win within a few rounds *)
  for _ = 1 to 3 do
    ignore (look_b ())
  done;
  ignore (look_b ());
  let b_fetches_at_admit = !fetches_b in
  ignore (look_b ());
  Alcotest.(check int) "challenger admitted, now served from cache"
    b_fetches_at_admit !fetches_b;
  ignore (look_a ());
  Alcotest.(check int) "old resident was evicted" 2 !fetches_a

let qcheck_model_equivalence =
  (* Random op mix against the reference model, on a 4-slot cache over 32
     keys (heavy collision pressure). Kind 4 is the race the fill
     protocol exists for: a write lands in the middle of the backend
     fetch, after the version was read — the lookup may legitimately
     return the pre-write presence (the fetch linearized first), but no
     LATER lookup may: the final sweep proves no stale entry survives. *)
  QCheck.Test.make ~name:"frontcache: model equivalence under random ops incl. racing writes"
    ~count:300
    QCheck.(list (pair (int_bound 4) (int_bound 31)))
    (fun ops ->
      let m = model 32 in
      let fc = mk_fc ~entries:4 m in
      let ok = ref true in
      List.iter
        (fun (kind, k) ->
          match kind with
          | 0 ->
              let r = Frontcache.lookup fc k ~fetch:(fun () -> m.mpresent.(k)) in
              if r <> m.mpresent.(k) then ok := false
          | 1 -> m_set m k
          | 2 -> m_del m k
          | 3 -> Frontcache.invalidate fc k
          | _ ->
              let pre = m.mpresent.(k) in
              let r =
                Frontcache.lookup fc k
                  ~fetch:(fun () ->
                    let p = m.mpresent.(k) in
                    m_set m k;
                    p)
              in
              if r <> pre then ok := false)
        ops;
      for k = 0 to 31 do
        let r = Frontcache.lookup fc k ~fetch:(fun () -> m.mpresent.(k)) in
        if r <> m.mpresent.(k) then ok := false
      done;
      let st = Frontcache.stats fc in
      !ok
      && st.Frontcache.hits + st.Frontcache.misses + st.Frontcache.stale
         = List.length (List.filter (fun (kind, _) -> kind = 0 || kind = 4) ops) + 32)

(* --- end-to-end: server with the cache on -------------------------------- *)

(* Four connections through a front-cached server over a DPS backend.
   Each connection writes a disjoint key range (so its expected responses
   are computable locally) and reads both its own keys and a static
   pre-populated shared range; responses are FIFO per connection, so the
   received shape sequence must equal the reference exactly — any stale
   read (a get served from a poller's cache after the same connection's
   set or delete) shows up as a shape mismatch. *)

type op = S of int | D of int | G of int list

let shape_of_response = function
  | Wire.Values vs -> Printf.sprintf "values:%d" (List.length vs)
  | Wire.Stored -> "stored"
  | Wire.Not_stored -> "not_stored"
  | Wire.Deleted -> "deleted"
  | Wire.Not_found -> "not_found"
  | Wire.Error -> "error"
  | Wire.Client_error _ -> "client_error"
  | Wire.Server_error _ -> "server_error"

(* reference evaluation over a private presence map (own keys disjoint
   per connection; shared keys are never written by anyone) *)
let expected_shapes ~present ops =
  List.map
    (function
      | S k ->
          present.(k) <- true;
          "stored"
      | D k ->
          let was = present.(k) in
          present.(k) <- false;
          if was then "deleted" else "not_found"
      | G ks -> Printf.sprintf "values:%d" (List.length (List.filter (fun k -> present.(k)) ks)))
    ops

let encode_ops ops =
  let b = Buffer.create 256 in
  List.iter
    (fun o ->
      Wire.encode_request b
        (match o with
        | S k ->
            Wire.Set { key = string_of_int k; flags = 0; exptime = 0; data = "v"; noreply = false }
        | D k -> Wire.Delete { key = string_of_int k; noreply = false }
        | G ks -> Wire.Get (List.map string_of_int ks)))
    ops;
  Buffer.contents b

let nconns = 4
let own_base c = c * 8
let shared_base = 32
let nkeys = 64

(* own-key traffic interleaved with repeated shared-key reads (the
   repeats are the cache's hit fodder) and a multiget that crosses both *)
let script c phase =
  List.concat_map
    (fun i ->
      let k = own_base c + ((i + (4 * phase)) mod 8) in
      let sh = shared_base + ((c + i) mod 16) in
      [ S k; G [ k ]; G [ sh ]; G [ sh ]; G [ k; sh ]; D k; G [ k ]; S k; G [ k; sh ] ])
    [ 0; 1; 2; 3 ]

let mk_sim () = Sthread.create (Machine.create (Machine.config_scaled ()))

let start_server ?serving s =
  let net = Net.create s () in
  let backend =
    Variants.dps_mc s ?serving ~versions:(4 * 256) ~nclients:4 ~locality_size:4
      ~buckets:256 ~capacity:1024 ()
  in
  backend.Variants.populate
    ~keys:(Array.init 16 (fun i -> shared_base + i))
    ~val_lines:1;
  let srv =
    Server.start s net ~backend { Server.default_config with npollers = 4; front_cache = 8 }
  in
  (net, srv)

let mk_conn s net =
  let dec = Wire.decoder () in
  let shapes = ref [] in
  let c =
    Net.connect net ~nic:0
      ~tag:0 ~rx:(fun _ data ->
        Wire.feed dec data;
        let rec drain () =
          match Wire.next_response dec with
          | Wire.Need_more -> ()
          | Wire.Bad { msg; _ } -> Alcotest.failf "client got unparsable response: %s" msg
          | Wire.Item r ->
              shapes := shape_of_response r :: !shapes;
              drain ()
        in
        drain ())
      ()
  in
  (ignore s; (c, shapes))

let test_read_your_writes_same_conn () =
  let s = mk_sim () in
  let net, srv = start_server s in
  let conns = Array.init nconns (fun _ -> mk_conn s net) in
  let expected =
    Array.init nconns (fun c ->
        let present = Array.make nkeys false in
        Array.iteri
          (fun i _ -> if i >= shared_base && i < shared_base + 16 then present.(i) <- true)
          present;
        expected_shapes ~present (script c 0))
  in
  Array.iteri (fun c (conn, _) -> Net.send net conn (encode_ops (script c 0))) conns;
  Sthread.at s ~time:2_000_000 (fun () -> Server.stop srv);
  Sthread.run s;
  Alcotest.(check bool) "front cache is on" true (Server.front_cache_on srv);
  Array.iteri
    (fun c (_, shapes) ->
      Alcotest.(check (list string))
        (Printf.sprintf "conn %d response sequence" c)
        expected.(c)
        (List.rev !shapes))
    conns;
  let fc = Server.fc_stats srv in
  Alcotest.(check bool) "cache actually served hits" true (fc.Frontcache.hits > 0);
  Alcotest.(check bool) "writes invalidated poller entries" true (fc.Frontcache.invals > 0)

let test_no_stale_read_across_takeover () =
  (* Same contract with a poller killed mid-run: its partition is healed
     by surviving pollers (self-healing DPS), the version table is global
     to the backend and survives the takeover, so every response that
     does arrive must still match the reference prefix — connections
     parked on the dead poller just stop answering. *)
  let s = mk_sim () in
  let net, srv = start_server ~serving:Dps.self_healing s in
  let faults = Faults.install s ~seed:11L (Faults.spec ()) in
  let conns = Array.init nconns (fun _ -> mk_conn s net) in
  let expected =
    Array.init nconns (fun c ->
        let present = Array.make nkeys false in
        Array.iteri
          (fun i _ -> if i >= shared_base && i < shared_base + 16 then present.(i) <- true)
          present;
        expected_shapes ~present (script c 0 @ script c 1))
  in
  Array.iteri (fun c (conn, _) -> Net.send net conn (encode_ops (script c 0))) conns;
  Faults.schedule_kill faults ~at:300_000 ~tids:(fun () ->
      match Server.poller_tids srv with [] -> [] | t :: _ -> [ t ]);
  Sthread.at s ~time:600_000 (fun () ->
      Array.iteri (fun c (conn, _) -> Net.send net conn (encode_ops (script c 1))) conns);
  Sthread.at s ~time:6_000_000 (fun () -> Server.stop srv);
  Sthread.run s;
  let complete = ref 0 in
  Array.iteri
    (fun c (_, shapes) ->
      let got = List.rev !shapes in
      let ngot = List.length got in
      let want = expected.(c) in
      if ngot = List.length want then incr complete;
      Alcotest.(check bool)
        (Printf.sprintf "conn %d: every received response matches the reference prefix" c)
        true
        (got = List.filteri (fun i _ -> i < ngot) want))
    conns;
  Alcotest.(check bool)
    (Printf.sprintf "at least %d connections ran to completion" (nconns - 1))
    true
    (!complete >= nconns - 1)

let suite =
  [
    Alcotest.test_case "hit serves without fetch" `Quick test_hit_skips_fetch;
    Alcotest.test_case "backend write invalidates via version" `Quick test_write_invalidates;
    Alcotest.test_case "explicit invalidate drops entry" `Quick test_invalidate_drops_entry;
    Alcotest.test_case "LFU-lite admission duel" `Quick test_admission_duel;
    QCheck_alcotest.to_alcotest qcheck_model_equivalence;
    Alcotest.test_case "e2e: read-your-writes per connection" `Quick
      test_read_your_writes_same_conn;
    Alcotest.test_case "e2e: no stale read across poller kill/takeover" `Quick
      test_no_stale_read_across_takeover;
  ]
