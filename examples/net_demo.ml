(* Simulated network front-end: memcached over NICs, links and DMA.

   Three short acts:
   1. the wire protocol on a raw connection — multi-get, set, delete, and a
      malformed request answered CLIENT_ERROR without killing the connection;
   2. a closed-loop client fleet against a DPS-backed server — thousands of
      simulated users multiplexed over a few dozen connections, with the
      connection limit refusing the overflow and the refused clients
      backing off and retrying;
   3. the same fleet replayed from the same seed, bit-for-bit.

   Run with: dune exec examples/net_demo.exe *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Net = Dps_net.Net
module Wire = Dps_net.Wire
module Server = Dps_server.Server
module Netload = Dps_workload.Netload
module Variants = Dps_memcached.Variants

let items = 4096

(* --- Act 1: one raw connection, scripted by hand ------------------------ *)

let raw_connection () =
  print_endline "--- raw connection: the ASCII protocol over the link ---";
  let m = Machine.create (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let net = Net.create sched () in
  let backend = Variants.stock sched ~nclients:4 ~buckets:256 ~capacity:512 in
  backend.Variants.populate ~keys:[| 1; 2; 3 |] ~val_lines:1;
  let srv = Server.start sched net ~backend { Server.default_config with npollers = 4 } in
  let dec = Wire.decoder () in
  let c =
    Net.connect net ~nic:0
      ~tag:0 ~rx:(fun _ data ->
        Wire.feed dec data;
        let rec drain () =
          match Wire.next_response dec with
          | Wire.Need_more -> ()
          | Wire.Bad { msg; _ } -> Printf.printf "  client: unparsable response (%s)\n" msg
          | Wire.Item r ->
              (match r with
              | Wire.Values vs ->
                  Printf.printf "  server: %d value(s) [%s]\n" (List.length vs)
                    (String.concat "; "
                       (List.map
                          (fun v ->
                            Printf.sprintf "%s=%dB" v.Wire.vkey (String.length v.Wire.vdata))
                          vs))
              | Wire.Stored -> print_endline "  server: STORED"
              | Wire.Deleted -> print_endline "  server: DELETED"
              | Wire.Not_found -> print_endline "  server: NOT_FOUND"
              | Wire.Client_error msg -> Printf.printf "  server: CLIENT_ERROR %s\n" msg
              | Wire.Not_stored | Wire.Error | Wire.Server_error _ ->
                  print_endline "  server: (other)");
              drain ()
        in
        drain ())
      ()
  in
  let say what req =
    Printf.printf "  client: %s\n" what;
    let b = Buffer.create 64 in
    Wire.encode_request b req;
    Net.send net c (Buffer.contents b)
  in
  say "get 1 2 99 (multi-get, one miss)" (Wire.Get [ "1"; "2"; "99" ]);
  say "set 99 (128 B)"
    (Wire.Set { key = "99"; flags = 0; exptime = 0; data = String.make 128 'x'; noreply = false });
  say "get 99" (Wire.Get [ "99" ]);
  say "delete 2" (Wire.Delete { key = "2"; noreply = false });
  say "delete 2 (again)" (Wire.Delete { key = "2"; noreply = false });
  (* a malformed line goes out raw, straight past the encoder *)
  print_endline "  client: bogus 1 2 3 (malformed)";
  Net.send net c "bogus 1 2 3\r\n";
  say "get 1 (connection survives)" (Wire.Get [ "1" ]);
  Sthread.at sched ~time:100_000 (fun () -> Server.stop srv);
  Sthread.run sched;
  Printf.printf "  %d requests served, %d malformed\n\n" (Server.stats srv).Server.requests
    (Server.stats srv).Server.bad_requests

(* --- Acts 2 and 3: a closed-loop fleet, then its replay ----------------- *)

type signature = {
  completed : int;
  issued : int;
  hits : int;
  refused : int;
  dropped : int;
  p50 : int;
  p99 : int;
  end_time : int;
  requests : int;
  local_pct : float;
}

let fleet ~seed =
  let m = Machine.create (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let net = Net.create sched () in
  let backend =
    Variants.dps_parsec sched ~serving:Dps.self_healing ~nclients:40 ~locality_size:10
      ~buckets:items ~capacity:(2 * items) ()
  in
  backend.Variants.populate ~keys:(Array.init items Fun.id) ~val_lines:2;
  let srv =
    Server.start sched net ~backend { Server.default_config with npollers = 40; max_conns = 48 }
  in
  let sp = Netload.spec ~nclients:2000 ~nconns:64 ~set_pct:10 ~key_range:items ~seed () in
  let rr =
    Netload.run_routed sched (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:150_000
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  let r = rr.Netload.agg in
  let st = Server.stats srv in
  ( r,
    {
      completed = r.Netload.completed;
      issued = r.Netload.issued;
      hits = r.Netload.hits;
      refused = r.Netload.refused_conns;
      dropped = rr.Netload.dropped;
      p50 = r.Netload.p50;
      p99 = r.Netload.p99;
      end_time = Sthread.now sched;
      requests = st.Server.requests;
      local_pct = Net.local_fraction net *. 100.0;
    } )

let () =
  raw_connection ();
  print_endline "--- closed-loop fleet: 2000 users over 64 connections ---";
  let r, s1 = fleet ~seed:42L in
  Format.printf "  %a@." Netload.pp_result r;
  Printf.printf "  64 connection slots, limit 48: %d connects refused, %d requests given up\n"
    s1.refused s1.dropped;
  Printf.printf "  server ring traffic %.1f%% socket-local\n\n" s1.local_pct;
  print_endline "--- replay: same seed, same world ---";
  let _, s2 = fleet ~seed:42L in
  if s1 = s2 then
    Printf.printf "  identical: %d completed, p99 %d, final clock %d\n" s2.completed s2.p99
      s2.end_time
  else print_endline "  MISMATCH: the simulation is not deterministic!"
