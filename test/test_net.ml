(* Tests for the simulated network front-end: wire codec (round-trip under
   arbitrary packetization, malformed-input rejection), NIC/link/DMA model
   (timing, backpressure, locality tallies), the server event loop, and
   fleet determinism. *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Byteq = Dps_net.Byteq
module Wire = Dps_net.Wire
module Net = Dps_net.Net
module Server = Dps_server.Server
module Netload = Dps_workload.Netload
module Variants = Dps_memcached.Variants

let mk () = Sthread.create (Machine.create (Machine.config_scaled ()))

(* --- codec ------------------------------------------------------------- *)

let gen_key p = Printf.sprintf "k%d" (Prng.int p 100000)

let gen_data p =
  (* arbitrary bytes, CRLF included: data blocks are length-framed *)
  String.init (Prng.int p 200) (fun _ -> Char.chr (Prng.int p 256))

let gen_request p =
  match Prng.int p 3 with
  | 0 -> Wire.Get (List.init (1 + Prng.int p 4) (fun _ -> gen_key p))
  | 1 ->
      Wire.Set
        {
          key = gen_key p;
          flags = Prng.int p 1024;
          exptime = Prng.int p 10000;
          data = gen_data p;
          noreply = Prng.bool p;
        }
  | _ -> Wire.Delete { key = gen_key p; noreply = Prng.bool p }

let gen_response p =
  match Prng.int p 6 with
  | 0 ->
      Wire.Values
        (List.init (Prng.int p 4) (fun _ ->
             { Wire.vkey = gen_key p; vflags = Prng.int p 1024; vdata = gen_data p }))
  | 1 -> Wire.Stored
  | 2 -> Wire.Deleted
  | 3 -> Wire.Not_found
  | 4 -> Wire.Error
  | _ -> Wire.Client_error "object too large for cache"

(* Encode [items], split the byte stream at arbitrary boundaries, feed the
   chunks one by one, and require the decoded sequence to match exactly —
   with [Need_more] (never [Bad]) at every intermediate point. *)
let roundtrip (type a) ~(encode : Buffer.t -> a -> unit)
    ~(next : Wire.decoder -> a Wire.parse) p items =
  let b = Buffer.create 1024 in
  List.iter (fun it -> encode b it) items;
  let stream = Buffer.contents b in
  let d = Wire.decoder () in
  let decoded = ref [] in
  let rec drain () =
    match next d with
    | Wire.Need_more -> ()
    | Wire.Bad { msg; _ } -> Alcotest.failf "Bad on valid stream: %s" msg
    | Wire.Item it ->
        decoded := it :: !decoded;
        drain ()
  in
  let pos = ref 0 in
  while !pos < String.length stream do
    let n = min (1 + Prng.int p 40) (String.length stream - !pos) in
    Wire.feed d (String.sub stream !pos n);
    pos := !pos + n;
    drain ()
  done;
  Alcotest.(check int) "no partial frame left" 0 (Wire.buffered d);
  List.rev !decoded

let test_request_roundtrip () =
  let p = Prng.create 101L in
  for _ = 1 to 50 do
    let items = List.init (1 + Prng.int p 10) (fun _ -> gen_request p) in
    let got = roundtrip ~encode:Wire.encode_request ~next:Wire.next_request p items in
    Alcotest.(check bool) "requests round-trip" true (got = items)
  done

let test_response_roundtrip () =
  let p = Prng.create 202L in
  for _ = 1 to 50 do
    let items = List.init (1 + Prng.int p 10) (fun _ -> gen_response p) in
    let got = roundtrip ~encode:Wire.encode_response ~next:Wire.next_response p items in
    Alcotest.(check bool) "responses round-trip" true (got = items)
  done

let test_truncation_safe () =
  (* Every prefix of a valid stream parses to a prefix of its frames; a cut
     mid-frame is Need_more, never Bad. *)
  let p = Prng.create 303L in
  let items = List.init 6 (fun _ -> gen_request p) in
  let b = Buffer.create 512 in
  List.iter (fun it -> Wire.encode_request b it) items;
  let stream = Buffer.contents b in
  for cut = 0 to String.length stream do
    let d = Wire.decoder () in
    Wire.feed d (String.sub stream 0 cut);
    let rec drain acc =
      match Wire.next_request d with
      | Wire.Need_more -> List.rev acc
      | Wire.Bad { msg; _ } -> Alcotest.failf "Bad at prefix %d: %s" cut msg
      | Wire.Item it -> drain (it :: acc)
    in
    let got = drain [] in
    let rec is_prefix xs ys =
      match (xs, ys) with
      | [], _ -> true
      | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
      | _ :: _, [] -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d decodes a frame prefix" cut)
      true (is_prefix got items)
  done

let expect_bad what d next =
  match next d with
  | Wire.Bad _ -> ()
  | Wire.Item _ -> Alcotest.failf "%s: parsed instead of rejected" what
  | Wire.Need_more -> Alcotest.failf "%s: Need_more instead of Bad" what

let test_malformed_rejected () =
  let cases =
    [
      ("unknown verb", "bogus 1 2 3\r\n");
      ("get without keys", "get\r\n");
      ("set with junk length", "set k 0 0 abc\r\n");
      ("set over-long length", "set k 0 0 9999999\r\n");
      ("set bad terminator", "set k 0 0 4\r\nabcdXY");
      ("delete arity", "delete\r\n");
    ]
  in
  List.iter
    (fun (what, input) ->
      let d = Wire.decoder () in
      Wire.feed d input;
      expect_bad what d Wire.next_request)
    cases;
  (* a line may hold 8192 bytes; one byte more with no CRLF in sight is
     dropped wholesale *)
  let d = Wire.decoder () in
  Wire.feed d (String.make 8192 'a');
  (match Wire.next_request d with
  | Wire.Need_more -> ()
  | _ -> Alcotest.fail "an 8192-byte line without CRLF must wait for more");
  Wire.feed d "a";
  expect_bad "line too long" d Wire.next_request;
  Alcotest.(check int) "garbage dropped" 0 (Wire.buffered d);
  (* responses reject too *)
  let d = Wire.decoder () in
  Wire.feed d "WHAT 1 2\r\n";
  expect_bad "unknown response" d Wire.next_response;
  (* a malformed frame poisons only itself: the next frame still parses *)
  let d = Wire.decoder () in
  Wire.feed d "bogus\r\nget alive\r\n";
  expect_bad "first frame" d Wire.next_request;
  (match Wire.next_request d with
  | Wire.Item (Wire.Get [ "alive" ]) -> ()
  | _ -> Alcotest.fail "frame after Bad did not parse")

let test_oversized_set_resync () =
  (* A set announcing a payload over the codec limit answers SERVER_ERROR,
     and the decoder swallows exactly the announced bytes — the stream
     resynchronizes on the next command even when the payload arrives in
     dribs and drabs. *)
  let d = Wire.decoder () in
  let n = (1 lsl 20) + 5 in
  Wire.feed d (Printf.sprintf "set big 0 0 %d\r\n" n);
  (match Wire.next_request d with
  | Wire.Bad { reply = Wire.Server_error _; _ } -> ()
  | Wire.Bad { reply = _; _ } -> Alcotest.fail "oversized set: wrong canned reply"
  | _ -> Alcotest.fail "oversized set not rejected");
  let remaining = ref (n + 2) in
  while !remaining > 0 do
    let chunk = min 65_536 !remaining in
    Wire.feed d (String.make chunk 'x');
    remaining := !remaining - chunk;
    if !remaining > 0 then
      match Wire.next_request d with
      | Wire.Need_more -> ()
      | _ -> Alcotest.fail "decoder produced a frame from skipped payload"
  done;
  Wire.feed d "get after\r\n";
  (match Wire.next_request d with
  | Wire.Item (Wire.Get [ "after" ]) -> ()
  | _ -> Alcotest.fail "stream did not resynchronize after skipped payload");
  Alcotest.(check int) "payload fully consumed" 0 (Wire.buffered d)

let test_garbage_resync () =
  (* Seeded garbage lines never raise, each answers Bad, and a valid frame
     after the last CRLF still parses. *)
  let p = Prng.create 909L in
  for _round = 0 to 19 do
    let d = Wire.decoder () in
    let nlines = 1 + Prng.int p 4 in
    for _ = 1 to nlines do
      let len = 1 + Prng.int p 40 in
      let line =
        String.init len (fun _ ->
            (* printable junk, no CR/LF inside the line *)
            Char.chr (33 + Prng.int p 94))
      in
      Wire.feed d (line ^ "\r\n")
    done;
    let rec drain bads =
      match Wire.next_request d with
      | Wire.Need_more -> bads
      | Wire.Bad _ -> drain (bads + 1)
      | Wire.Item _ -> drain bads (* junk can collide with a verb; fine *)
    in
    ignore (drain 0);
    Wire.feed d "get alive\r\n";
    let rec settle () =
      match Wire.next_request d with
      | Wire.Item (Wire.Get [ "alive" ]) -> ()
      | Wire.Bad _ -> settle ()
      | _ -> Alcotest.fail "valid frame lost after garbage"
    in
    settle ()
  done

let test_truncated_multiget_response () =
  (* A VALUE/END response cut anywhere is Need_more, never Bad, and the
     reassembled stream parses to the original values. *)
  let b = Buffer.create 256 in
  Wire.encode_response b
    (Wire.Values
       [
         { Wire.vkey = "a"; vflags = 0; vdata = "xxxx" };
         { Wire.vkey = "bb"; vflags = 7; vdata = String.make 64 'y' };
       ]);
  let stream = Buffer.contents b in
  for cut = 0 to String.length stream - 1 do
    let d = Wire.decoder () in
    Wire.feed d (String.sub stream 0 cut);
    (match Wire.next_response d with
    | Wire.Need_more -> ()
    | Wire.Bad { msg; _ } -> Alcotest.failf "cut %d: Bad (%s)" cut msg
    | Wire.Item _ -> Alcotest.failf "cut %d: full frame from a prefix" cut);
    Wire.feed d (String.sub stream cut (String.length stream - cut));
    match Wire.next_response d with
    | Wire.Item
        (Wire.Values
          [
            { Wire.vkey = "a"; vflags = 0; vdata = "xxxx" };
            { Wire.vkey = "bb"; vflags = 7; vdata = v };
          ])
      ->
        Alcotest.(check int) "second value intact" 64 (String.length v)
    | _ -> Alcotest.failf "cut %d: reassembled frame did not parse" cut
  done

let test_byteq () =
  let q = Byteq.create () in
  Byteq.push q "hello ";
  Byteq.push q "world";
  Alcotest.(check int) "length" 11 (Byteq.length q);
  Alcotest.(check char) "get" 'w' (Byteq.get q 6);
  Alcotest.(check string) "sub" "lo wo" (Byteq.sub q ~pos:3 ~len:5);
  Byteq.drop q 6;
  let into = Byteq.create () in
  Alcotest.(check int) "move after drop" 3 (Byteq.move q ~into ~max:3);
  Alcotest.(check int) "move rest" 2 (Byteq.move q ~into ~max:100);
  Alcotest.(check string) "moved bytes" "world" (Byteq.sub into ~pos:0 ~len:5);
  Alcotest.(check int) "empty" 0 (Byteq.length q);
  (* interleaved push/drop exercises compaction *)
  for i = 0 to 999 do
    Byteq.push q (string_of_int i);
    Byteq.drop q (min 2 (Byteq.length q))
  done;
  Byteq.drop q (Byteq.length q);
  Alcotest.(check int) "drained" 0 (Byteq.length q)

(* A random [Byteq] program against a string model. Chunks run both under
   and over the 256 B a drained buffer may have and still be dropped, and
   [Drain] empties the queue often, so buffers are dropped and re-created
   many times. Whenever the queue is empty it must hold no buffer of at
   most 256 B: it is then as small as a fresh queue, or it kept a buffer
   of more than 256 B (buffer sizes are powers of two, so 512 B or
   more). [Move] carries bytes into a second queue and [Refill] back, and
   [Skip] discards bytes now and as they arrive, by push or by move; the
   model keeps both queues' strings and the first one's skip count. *)
type byteq_op =
  | Push of int
  | Move of int
  | Refill of int
  | Skip of int
  | Drop of int
  | Sub of int * int
  | Get of int
  | Drain
  | Clear

let byteq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Push n) (oneof [ int_bound 40; int_range 200 700 ]));
        (2, map (fun n -> Move n) (int_bound 300));
        (2, map (fun n -> Refill n) (int_bound 300));
        (1, map (fun n -> Skip n) (int_bound 300));
        (2, map (fun n -> Drop n) (int_bound 300));
        (1, map2 (fun p l -> Sub (p, l)) (int_bound 300) (int_bound 300));
        (1, map (fun i -> Get i) (int_bound 300));
        (2, return Drain);
        (1, return Clear);
      ])

let qcheck_byteq_model =
  let fresh_words = Obj.reachable_words (Obj.repr (Byteq.create ())) in
  QCheck.Test.make ~name:"byte queue agrees with a string model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 80) byteq_op_gen))
    (fun ops ->
      let q = Byteq.create () and other = Byteq.create () in
      let model = ref "" and other_model = ref "" and skip = ref 0 in
      let next = ref 0 in
      let chunk n =
        incr next;
        String.init n (fun i -> Char.chr (((!next * 31) + i) land 255))
      in
      let consume n =
        let len = String.length !model in
        let got = String.sub !model 0 n in
        model := String.sub !model n (len - n);
        got
      in
      (* bytes reaching [q], less those a skip still discards *)
      let arrive c =
        let k = Int.min !skip (String.length c) in
        skip := !skip - k;
        model := !model ^ String.sub c k (String.length c - k)
      in
      List.iteri
        (fun step op ->
          let len = String.length !model in
          let fail what = QCheck.Test.fail_reportf "step %d: %s disagrees" step what in
          (match op with
          | Push n ->
              let c = chunk n in
              Byteq.push q c;
              arrive c
          | Move n ->
              let moved = Byteq.move q ~into:other ~max:n in
              if moved <> Int.min n len then fail "move count";
              other_model := !other_model ^ consume moved
          | Refill n ->
              let c = chunk n in
              Byteq.push other c;
              other_model := !other_model ^ c;
              let olen = String.length !other_model in
              let moved = Byteq.move other ~into:q ~max:n in
              if moved <> Int.min n olen then fail "refill count";
              let c = String.sub !other_model 0 moved in
              other_model := String.sub !other_model moved (olen - moved);
              arrive c
          | Skip n ->
              Byteq.skip q n;
              let k = Int.min n len in
              ignore (consume k);
              skip := !skip + (n - k)
          | Drop n ->
              let n = n mod (len + 1) in
              Byteq.drop q n;
              ignore (consume n)
          | Sub (p, l) ->
              let p = p mod (len + 1) in
              let l = l mod (len - p + 1) in
              if Byteq.sub q ~pos:p ~len:l <> String.sub !model p l then fail "sub"
          | Get i -> if len > 0 && Byteq.get q (i mod len) <> !model.[i mod len] then fail "get"
          | Drain ->
              Byteq.drop q len;
              model := ""
          | Clear ->
              Byteq.clear q;
              model := "";
              skip := 0);
          if Byteq.length q <> String.length !model then fail "length";
          if Byteq.sub other ~pos:0 ~len:(Byteq.length other) <> !other_model then
            fail "second queue";
          if Byteq.sub q ~pos:0 ~len:(Byteq.length q) <> !model then fail "contents";
          let words = Obj.reachable_words (Obj.repr q) in
          if Byteq.length q = 0 && words > fresh_words && words <= fresh_words + (256 / 8) then
            QCheck.Test.fail_reportf "step %d: empty queue kept a %d-word buffer" step
              (words - fresh_words))
        ops;
      true)

(* An idle connection's queues hold no buffer: drained after a small
   exchange, a queue is as small as a fresh one, its record plus the
   shared empty buffer: 5 words (four fields, one of them the skip count a
   decoder keeps in the same block) and 2. A decoder is that one block. A
   queue that needed more than 256 B keeps its buffer, which its next
   burst reuses: single pushes of 256 B and 257 B sit on either side of
   the boundary. *)
let test_byteq_drops_idle_buffer () =
  let words q = Obj.reachable_words (Obj.repr q) in
  let q = Byteq.create () in
  let fresh = words q in
  Alcotest.(check int) "fresh queue is a record and an empty buffer" 7 fresh;
  Alcotest.(check int) "a decoder is one queue" fresh (words (Wire.decoder ()));
  Byteq.push q (String.make 40 'a');
  Byteq.push q (String.make 100 'b');
  Alcotest.(check bool) "a pushed queue holds a buffer" true (words q > fresh);
  Byteq.drop q (Byteq.length q);
  Alcotest.(check int) "drained small queue" fresh (words q);
  Byteq.push q (String.make 256 'c');
  Byteq.drop q 100;
  Byteq.clear q;
  Alcotest.(check int) "cleared 256 B queue" fresh (words q);
  Byteq.push q (String.make 257 'd');
  Byteq.drop q 257;
  Alcotest.(check bool) "drained 257 B queue keeps its buffer" true (words q > 256 / 8)

(* --- NIC / link / DMA model -------------------------------------------- *)

let test_link_timing () =
  let s = mk () in
  let net = Net.create s () in
  let readable_at = ref (-1) in
  let c = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) () in
  Net.set_on_readable c (fun _ -> if !readable_at < 0 then readable_at := Sthread.now s);
  Net.send net c (String.make 64 'x');
  Sthread.run s;
  (* SYN serializes (1 line), then the data line behind it, plus one
     propagation delay each; both must have crossed before delivery *)
  let min_arrival = Net.link_latency + (2 * Net.cycles_per_line) in
  Alcotest.(check bool)
    (Printf.sprintf "delivery after link crossing (%d >= %d)" !readable_at min_arrival)
    true
    (!readable_at >= min_arrival);
  Alcotest.(check bool) "but within the same microsecond order" true
    (!readable_at < 2 * Net.link_latency);
  let st = Net.stats net in
  Alcotest.(check int) "one packet" 1 st.Net.pkts_rx;
  Alcotest.(check int) "64 bytes" 64 st.Net.bytes_rx;
  Alcotest.(check bool) "DMA lines charged" true (st.Net.dma_lines >= 1)

let test_backpressure () =
  let s = mk () in
  (* a small window and a slow consumer: the link outruns the drain *)
  let net = Net.create s ~config:{ Net.default_config with Net.rx_window = 2048 } () in
  let total = 16384 in
  let c = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) () in
  let got = ref 0 in
  let dec = Wire.decoder () in
  Sthread.spawn s ~hw:2 (fun () ->
      (* accept-less raw drain: poll the connection until all bytes arrive *)
      while !got < total do
        let n = Net.recv net c dec ~max:1024 in
        if n = 0 then ignore (Sthread.park_for 1000) else got := !got + n
      done);
  Net.send net c (String.make total 'x');
  Sthread.run s;
  Alcotest.(check int) "all bytes eventually delivered" total !got;
  Alcotest.(check bool) "window held packets at the NIC" true
    ((Net.stats net).Net.backpressured > 0)

(* An impossible front-end config fails at [create]: a ring of no lines
   would fail only at the first connection, and a window of no bytes would
   hold every packet at the NIC for good. One test per field; the smallest
   legal value still builds. *)
let create_rejects_impossible =
  let create config = ignore (Net.create (mk ()) ~config ()) in
  let d = Net.default_config in
  List.map
    (fun (what, bad, smallest) ->
      ( "create rejects " ^ what,
        `Quick,
        fun () ->
          Alcotest.check_raises what (Invalid_argument ("Net.create: " ^ what)) (fun () ->
              create bad);
          create smallest ))
    [
      ("ring_lines < 1", { d with Net.ring_lines = 0 }, { d with Net.ring_lines = 1 });
      ("rx_window < 1", { d with Net.rx_window = 0 }, { d with Net.rx_window = 1 });
    ]

let test_locality_tally () =
  let s = mk () in
  let topo = Machine.topology (Sthread.machine s) in
  let net = Net.create s () in
  let c0 = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) () in
  let c1 = Net.connect net ~nic:1 ~tag:0 ~rx:(fun _ _ -> ()) () in
  Net.send net c0 (String.make 256 'a');
  Net.send net c1 (String.make 256 'b');
  (* one server thread on socket 0: local for c0's NIC, remote for c1's *)
  Sthread.spawn s ~hw:2 (fun () ->
      let drain c =
        let got = ref 0 and dec = Wire.decoder () in
        while !got < 256 do
          let n = Net.recv net c dec ~max:4096 in
          if n = 0 then ignore (Sthread.park_for 500) else got := !got + n
        done
      in
      drain c0;
      drain c1;
      let out = Buffer.create 128 in
      Buffer.add_string out (String.make 128 'r');
      Net.reply net c0 out);
  Sthread.run s;
  let st = Net.stats net in
  Alcotest.(check bool) "sockets >= 2 in this topology" true (topo.Topology.sockets >= 2);
  (* c0: 4 rx lines + 2 tx lines local; c1: 4 rx lines remote *)
  Alcotest.(check int) "local lines" 6 st.Net.local_lines;
  Alcotest.(check int) "remote lines" 4 st.Net.remote_lines;
  Alcotest.(check bool) "fraction in between" true
    (Net.local_fraction net > 0.5 && Net.local_fraction net < 1.0)

let test_refusal () =
  let s = mk () in
  let net = Net.create s () in
  let refused = ref 0 in
  let _c = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) ~on_refused:(fun _ -> incr refused) () in
  let accepted = ref [] in
  Sthread.spawn s ~hw:0 (fun () ->
      let rec loop () =
        match Net.accept net with
        | Some c -> accepted := c :: !accepted; loop ()
        | None -> ()
      in
      loop ());
  (* close the listener before the SYN lands: the connection is refused and
     the blocked acceptor unblocks with None *)
  Sthread.at s ~time:100 (fun () -> Net.unlisten net);
  let _late = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) ~on_refused:(fun _ -> incr refused) () in
  Sthread.run s;
  Alcotest.(check int) "none accepted" 0 (List.length !accepted);
  Alcotest.(check int) "both refused" 2 !refused;
  Alcotest.(check int) "stat counted" 2 (Net.stats net).Net.refused

(* --- server event loop -------------------------------------------------- *)

let test_server_end_to_end () =
  let s = mk () in
  let net = Net.create s () in
  let backend = Variants.stock s ~nclients:4 ~buckets:128 ~capacity:256 in
  backend.Variants.populate ~keys:[| 7; 8 |] ~val_lines:1;
  let srv = Server.start s net ~backend { Server.default_config with npollers = 4 } in
  let dec = Wire.decoder () in
  let responses = ref [] in
  let c =
    Net.connect net ~nic:0
      ~tag:0 ~rx:(fun _ data ->
        Wire.feed dec data;
        let rec drain () =
          match Wire.next_response dec with
          | Wire.Need_more -> ()
          | Wire.Bad { msg; _ } -> Alcotest.failf "client got unparsable response: %s" msg
          | Wire.Item r ->
              responses := r :: !responses;
              drain ()
        in
        drain ())
      ()
  in
  let req r =
    let b = Buffer.create 64 in
    Wire.encode_request b r;
    Net.send net c (Buffer.contents b)
  in
  req (Wire.Get [ "7"; "8"; "9" ]);
  req (Wire.Set { key = "9"; flags = 0; exptime = 0; data = String.make 64 'v'; noreply = false });
  req (Wire.Get [ "9" ]);
  req (Wire.Delete { key = "7"; noreply = false });
  req (Wire.Delete { key = "7"; noreply = false });
  Net.send net c "gibberish\r\n";
  req (Wire.Get [ "8" ]);
  Sthread.at s ~time:200_000 (fun () -> Server.stop srv);
  Sthread.run s;
  let rs = List.rev !responses in
  let shape =
    List.map
      (function
        | Wire.Values vs -> Printf.sprintf "values:%d" (List.length vs)
        | Wire.Stored -> "stored"
        | Wire.Deleted -> "deleted"
        | Wire.Not_found -> "not_found"
        | Wire.Client_error _ -> "client_error"
        | Wire.Error -> "error"
        | _ -> "other")
      rs
  in
  Alcotest.(check (list string)) "response sequence"
    [ "values:2"; "stored"; "values:1"; "deleted"; "not_found"; "error"; "values:1" ]
    shape;
  let st = Server.stats srv in
  Alcotest.(check int) "requests" 6 st.Server.requests;
  Alcotest.(check int) "bad requests" 1 st.Server.bad_requests;
  Alcotest.(check int) "connections" 1 st.Server.conns;
  Alcotest.(check int) "hits" 4 st.Server.hits;
  Alcotest.(check bool) "pollers parked while idle" true (st.Server.parks > 0)

let test_server_connection_limit () =
  let s = mk () in
  let net = Net.create s () in
  let backend = Variants.stock s ~nclients:2 ~buckets:64 ~capacity:128 in
  let srv =
    Server.start s net ~backend { Server.default_config with npollers = 2; max_conns = 2 }
  in
  let refused = ref 0 in
  for _ = 1 to 4 do
    ignore (Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) ~on_refused:(fun _ -> incr refused) ())
  done;
  Sthread.at s ~time:100_000 (fun () -> Server.stop srv);
  Sthread.run s;
  Alcotest.(check int) "beyond the limit refused" 2 !refused;
  Alcotest.(check int) "under the limit kept" 2 (Server.stats srv).Server.conns

(* --- fleet: DPS backend, determinism ------------------------------------ *)

let fleet_once ?serving ~seed () =
  let s = mk () in
  let net = Net.create s () in
  let backend =
    Variants.dps_parsec s ?serving ~nclients:40 ~locality_size:10 ~buckets:1024
      ~capacity:2048 ()
  in
  backend.Variants.populate ~keys:(Array.init 1024 Fun.id) ~val_lines:2;
  let srv = Server.start s net ~backend { Server.default_config with npollers = 40 } in
  let sp = Netload.spec ~nclients:200 ~nconns:16 ~set_pct:20 ~key_range:1024 ~seed () in
  let rr =
    Netload.run_routed s (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:60_000
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  let r = rr.Netload.agg in
  (r, (Server.stats srv).Server.requests, Sthread.now s, Net.local_fraction net)

let test_connection_churn_soak () =
  (* Thousands of connect/request/disconnect cycles through a tiny
     connection limit: any leaked connection slot, ready-queue entry or
     poller registration shows up as a refusal, a non-zero pending count,
     or a hang (the scheduler would never quiesce). *)
  let s = mk () in
  let net = Net.create s () in
  let backend = Variants.stock s ~nclients:4 ~buckets:128 ~capacity:256 in
  backend.Variants.populate ~keys:[| 1 |] ~val_lines:1;
  (* headroom over the loop count: a client close is processed by the
     server one link delay later, so up to 2x[loops] can be counted at
     once — but a real leak accumulates over the 2000 cycles and blows
     through any fixed limit *)
  let max_conns = 32 in
  let srv =
    Server.start s net ~backend { Server.default_config with npollers = 4; max_conns }
  in
  let loops = 8 in
  let per_loop = 250 in
  let completed = ref 0 and finished_loops = ref 0 in
  let rec cycle loop k =
    if k >= per_loop then begin
      incr finished_loops;
      (* grace before stop, so the final closes are serviced too *)
      if !finished_loops = loops then
        Sthread.at s ~time:(Sthread.now s + 20_000) (fun () -> Server.stop srv)
    end
    else begin
      let dec = Wire.decoder () in
      let conn = ref None in
      let c =
        Net.connect net
          ~nic:(loop mod Net.nic_count net)
          ~tag:0 ~rx:(fun _ data ->
            Wire.feed dec data;
            match Wire.next_response dec with
            | Wire.Item _ ->
                incr completed;
                (match !conn with
                | Some c ->
                    conn := None;
                    Net.close net c;
                    cycle loop (k + 1)
                | None -> ())
            | Wire.Need_more -> ()
            | Wire.Bad { msg; _ } -> Alcotest.failf "soak: bad response: %s" msg)
          ~on_refused:(fun _ -> Alcotest.fail "soak: connection refused (slot leak?)")
          ()
      in
      conn := Some c;
      let b = Buffer.create 32 in
      Wire.encode_request b (Wire.Get [ "1" ]);
      Net.send net c (Buffer.contents b)
    end
  in
  for loop = 0 to loops - 1 do
    cycle loop 0
  done;
  Sthread.run s;
  Alcotest.(check int) "every cycle completed" (loops * per_loop) !completed;
  Alcotest.(check int) "accepted = churned connections" (loops * per_loop)
    (Server.stats srv).Server.conns;
  Alcotest.(check int) "no refusals through the churn" 0 (Net.stats net).Net.refused;
  Alcotest.(check int) "every close released its slot" (loops * per_loop)
    (Server.stats srv).Server.closed;
  Alcotest.(check int) "no pending ready-queue entries" 0 (Server.pending_conns srv)

let test_fleet_dps_deterministic () =
  let (r1, reqs1, end1, loc1) = fleet_once ~seed:7L () in
  let (r2, reqs2, end2, loc2) = fleet_once ~seed:7L () in
  Alcotest.(check bool) "fleet made progress" true (r1.Netload.completed > 100);
  Alcotest.(check int) "no client-visible errors" 0 r1.Netload.errors;
  Alcotest.(check bool) "placement keeps traffic local" true (loc1 >= 0.9);
  Alcotest.(check bool) "identical results" true (r1 = r2);
  Alcotest.(check int) "identical server requests" reqs1 reqs2;
  Alcotest.(check int) "identical end of time" end1 end2;
  Alcotest.(check bool) "identical locality" true (loc1 = loc2)

let test_fleet_self_healing_path () =
  (* PR 1's self-healing delegation stays live under the event-loop server *)
  let r, reqs, _, _ = fleet_once ~serving:Dps.self_healing ~seed:9L () in
  Alcotest.(check bool) "progress with self-healing on" true (r.Netload.completed > 100);
  Alcotest.(check int) "no errors" 0 r.Netload.errors;
  Alcotest.(check bool) "server agrees" true (reqs >= r.Netload.completed)

let test_fleet_open_loop () =
  let s = mk () in
  let net = Net.create s () in
  let backend = Variants.stock s ~nclients:8 ~buckets:512 ~capacity:1024 in
  backend.Variants.populate ~keys:(Array.init 512 Fun.id) ~val_lines:1;
  let srv = Server.start s net ~backend { Server.default_config with npollers = 8 } in
  let sp =
    Netload.spec ~nclients:100 ~nconns:8 ~set_pct:10 ~key_range:512
      ~mode:(Netload.Open { rate_mops = 5.0 }) ~seed:3L ()
  in
  let rr =
    Netload.run_routed s (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:60_000
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  let r = rr.Netload.agg in
  Alcotest.(check bool) "poisson arrivals served" true (r.Netload.completed > 20);
  Alcotest.(check int) "no errors" 0 r.Netload.errors;
  Alcotest.(check int) "nothing abandoned" 0 rr.Netload.abandoned

(* An open-loop rate that is not positive and finite is rejected before
   anything is scheduled; left through, its infinite or negative mean gap
   issued a request per connection slot per cycle, as did a positive rate
   whose gaps overflow an int. *)
let test_open_loop_rate_checked () =
  let fleet rate_mops =
    let s = mk () in
    let net = Net.create s () in
    let sp =
      Netload.spec ~nclients:2 ~nconns:2 ~key_range:64 ~mode:(Netload.Open { rate_mops }) ()
    in
    Netload.run_routed s (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:4_000 ()
  in
  List.iter
    (fun rate ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Netload.run_routed: open-loop rate_mops must be positive and finite")
        (fun () -> ignore (fleet rate)))
    [ 0.0; -1.0; nan ];
  let issued = (fleet 1.0).Netload.agg.Netload.issued in
  Alcotest.(check bool) (Printf.sprintf "1 Mops/s issues a few (%d)" issued) true (issued < 20);
  Alcotest.(check int) "1e-300 Mops/s issues none" 0 (fleet 1e-300).Netload.agg.Netload.issued

(* The one-node router spreads connection slots round-robin over the NICs,
   and the fleet dials each slot through it: losing either half serves the
   whole fleet from one socket's pollers. *)
let test_single_spreads_nics () =
  let s = mk () in
  let net = Net.create s () in
  Alcotest.(check int) "4-socket machine" 4 (Net.nic_count net);
  let backend = Variants.stock s ~nclients:8 ~buckets:64 ~capacity:128 in
  backend.Variants.populate ~keys:(Array.init 64 Fun.id) ~val_lines:1;
  let srv = Server.start s net ~backend { Server.default_config with npollers = 8 } in
  let single = Netload.single net in
  let dialed = Array.make (Net.nic_count net) 0 in
  let router =
    {
      single with
      Netload.nic_of =
        (fun node slot ->
          let nic = single.Netload.nic_of node slot in
          dialed.(nic) <- dialed.(nic) + 1;
          nic);
    }
  in
  let sp = Netload.spec ~nclients:8 ~nconns:8 ~key_range:64 () in
  let rr =
    Netload.run_routed s router (Netload.rspec ~base:sp ()) ~duration:40_000
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  Alcotest.(check int) "every slot dialed once" 8 rr.Netload.conns_opened;
  Alcotest.(check (array int)) "2 connections per NIC" [| 2; 2; 2; 2 |] dialed;
  Alcotest.(check (list int)) "slot -> NIC" [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (List.init 8 (single.Netload.nic_of 0))

(* --- fleet: request timeouts --------------------------------------------- *)

(* One closed-loop user on a single node whose stock backend spends
   [delay] cycles in every operation before answering. Wire and serving
   add 5k-7k cycles on top. *)
let slow_fleet ~delay =
  let s = mk () in
  let net = Net.create s () in
  let backend = Variants.stock s ~nclients:8 ~buckets:64 ~capacity:128 in
  backend.Variants.populate ~keys:(Array.init 64 Fun.id) ~val_lines:1;
  let backend =
    {
      backend with
      Variants.get =
        (fun k ->
          Sthread.work delay;
          backend.Variants.get k);
      set =
        (fun ~key ~val_lines ->
          Sthread.work delay;
          backend.Variants.set ~key ~val_lines);
    }
  in
  let srv = Server.start s net ~backend { Server.default_config with npollers = 8 } in
  let sp = Netload.spec ~nclients:1 ~nconns:1 ~set_pct:20 ~key_range:64 () in
  Netload.run_routed s (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:300_000
    ~stop:(fun () -> Server.stop srv)
    ()

(* A timeout is a send still unanswered [req_timeout] (60k) cycles after
   it went out: every reply slower than that counts, every faster one
   does not, and a live node's slow reply is waited for, never retried. *)
let test_timeouts_count_slow_replies () =
  let fast = slow_fleet ~delay:50_000 in
  Alcotest.(check int) "fast: 5 ops" 5 fast.Netload.agg.Netload.issued;
  Alcotest.(check int) "fast: all completed" 5 fast.Netload.agg.Netload.completed;
  Alcotest.(check bool) "fast: every reply under 60k" true (fast.Netload.agg.Netload.p99 < 60_000);
  Alcotest.(check int) "fast replies never time out" 0 fast.Netload.timeouts;
  let slow = slow_fleet ~delay:62_000 in
  Alcotest.(check int) "slow: 5 ops" 5 slow.Netload.agg.Netload.issued;
  Alcotest.(check int) "slow: all completed" 5 slow.Netload.agg.Netload.completed;
  Alcotest.(check bool) "slow: every reply over 60k" true (slow.Netload.agg.Netload.p50 > 60_000);
  Alcotest.(check int) "every slow reply timed out once" 5 slow.Netload.timeouts;
  Alcotest.(check int) "a live node is never retried" 0 slow.Netload.retries

(* --- doorbell-woken pollers ----------------------------------------------- *)

(* Scheduling points of a DPS-backed server with no traffic at all, stopped
   after [idle] cycles: its pollers park on an empty scan and nothing rings
   their doorbells, so the idle span costs no scheduling point. *)
let idle_server_sched_points ~idle =
  let s = mk () in
  let net = Net.create s () in
  let backend =
    Variants.dps_mc s ~serving:Dps.self_healing ~nclients:8 ~locality_size:4 ~buckets:256
      ~capacity:512 ()
  in
  let srv = Server.start s net ~backend { Server.default_config with npollers = 8 } in
  let points = ref 0 in
  Sthread.set_sched_hook s
    (Some
       (fun ~tid:_ ~now:_ ~tag:_ ~cycles:_ ->
         incr points;
         0));
  Sthread.at s ~time:idle (fun () -> Server.stop srv);
  Sthread.run s;
  Alcotest.(check int) "every thread finished" 0 (Sthread.live_threads s);
  !points

let test_idle_server_costs_nothing () =
  let short = idle_server_sched_points ~idle:1_000_000 in
  let long = idle_server_sched_points ~idle:8_000_000 in
  Alcotest.(check bool) "pollers ran" true (short > 0);
  Alcotest.(check int) "8M idle cycles cost what 1M cost" short long

(* Every get below is a multi-get with one key per partition, sent while
   the whole server is parked, so it delegates to every other partition's
   parked server in turn. A fault-free get takes about 5k cycles plus 2.2k
   per partition (at most 27k here). A server nobody wakes never serves
   under [Owner], and under healing the awaiting poller takes it over only
   50k cycles into each wait; the bound lies between. *)
let doorbell_bound ~nparts = 6_000 + (3_000 * nparts)

let qcheck_parked_servers_wake =
  QCheck.Test.make ~name:"a delegated get to a parked server completes within a bound" ~count:25
    QCheck.(
      quad (int_range 2 12) (int_range 1 6) bool
        (list_of_size Gen.(int_range 1 3) (int_range 0 20)))
    (fun (npollers, locality_size, healing, jitters) ->
      (* the shrinker may leave the ranges; at least two partitions *)
      let npollers = Int.max 2 npollers in
      let locality_size = Int.max 1 (Int.min locality_size (npollers - 1)) in
      let s = mk () in
      let net = Net.create s () in
      let serving = if healing then Dps.self_healing else Dps.Owner in
      let backend =
        Variants.dps_mc s ~serving ~nclients:npollers ~locality_size ~buckets:256 ~capacity:512 ()
      in
      let nparts = (npollers + locality_size - 1) / locality_size in
      backend.Variants.populate ~keys:(Array.init nparts Fun.id) ~val_lines:1;
      let srv = Server.start s net ~backend { Server.default_config with npollers } in
      let get = Printf.sprintf "get %s\r\n" (String.concat " " (List.init nparts string_of_int)) in
      let bound = doorbell_bound ~nparts in
      (* one connection per get, each sent two bounds after the last, so
         the server is parked again at every send *)
      let times =
        List.rev
          (snd
             (List.fold_left
                (fun (t, acc) j ->
                  let t = t + (2 * bound) + (1_000 * j) in
                  (t, t :: acc))
                (0, []) jitters))
      in
      let latencies =
        List.map
          (fun at ->
            let lat = ref (-1) in
            let c = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> lat := Sthread.now s - at) () in
            Sthread.at s ~time:at (fun () -> Net.send net c get);
            lat)
          times
      in
      let horizon = List.fold_left Int.max 0 times + bound in
      Sthread.run ~until:horizon s;
      let answered = List.for_all (fun lat -> !lat >= 0 && !lat <= bound) latencies in
      Server.stop srv;
      Sthread.run ~until:(horizon + 1_000_000) s;
      answered && Sthread.live_threads s = 0)

let doorbells reg =
  List.fold_left
    (fun acc (smp : Dps_obs.Registry.sample) ->
      match smp.value with
      | Dps_obs.Registry.Gauge_v v when smp.name = "dps.doorbells" -> acc + int_of_float v
      | _ -> acc)
    0 (Dps_obs.Registry.snapshot reg)

(* [dps.doorbells] counts parked servers woken by a publish: none in a run
   whose clients only call and drain, some in a served fleet. *)
let test_doorbell_counter () =
  let s = mk () in
  let dps =
    Dps.create s ~nclients:8 ~locality_size:4 ~hash:Fun.id ~mk_data:(fun _ -> ref 0) ()
  in
  for c = 0 to 7 do
    Sthread.spawn s ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        for k = 0 to 9 do
          ignore (Dps.call dps ~key:k (fun r -> incr r; !r))
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run s;
  let reg = Dps_obs.Registry.create () in
  Dps.register_obs dps reg;
  Alcotest.(check int) "no server parked, no doorbell" 0 (doorbells reg);
  let s = mk () in
  let net = Net.create s () in
  let backend =
    Variants.dps_mc s ~serving:Dps.self_healing ~nclients:40 ~locality_size:10 ~buckets:1024
      ~capacity:2048 ()
  in
  backend.Variants.populate ~keys:(Array.init 1024 Fun.id) ~val_lines:2;
  let srv = Server.start s net ~backend { Server.default_config with npollers = 40 } in
  let sp = Netload.spec ~nclients:200 ~nconns:16 ~set_pct:20 ~key_range:1024 ~seed:7L () in
  let rr =
    Netload.run_routed s (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:60_000
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  Alcotest.(check bool) "fleet made progress" true (rr.Netload.agg.Netload.completed > 100);
  let reg = Dps_obs.Registry.create () in
  Option.iter (fun f -> f ~labels:[] reg) backend.Variants.register_obs;
  Alcotest.(check bool) "a fleet rings doorbells" true (doorbells reg > 0)

(* Nobody accepts, so no request is ever answered: each one is still on
   its connection when the run ends, and counts as a timeout. *)
let test_timeouts_count_unanswered () =
  let s = mk () in
  let net = Net.create s () in
  let sp = Netload.spec ~nclients:8 ~nconns:4 ~key_range:64 () in
  let rr =
    Netload.run_routed s (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:10_000 ()
  in
  let issued = rr.Netload.agg.Netload.issued in
  Alcotest.(check int) "one request per user" 8 issued;
  Alcotest.(check int) "none completed" 0 rr.Netload.agg.Netload.completed;
  Alcotest.(check int) "all abandoned" issued rr.Netload.abandoned;
  Alcotest.(check int) "every unanswered request timed out" issued rr.Netload.timeouts

(* A reply longer than one MTU leaves as packets cut straight from the
   poller's buffer: 1536 B each and then the rest, in order, holding the
   bytes the buffer held at the call even though the caller reuses the
   buffer at once. *)
let test_reply_chunks () =
  let s = mk () in
  let net = Net.create s () in
  let chunks = ref [] in
  let c = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ data -> chunks := data :: !chunks) () in
  let len = 4000 and mtu = 1536 in
  let payload = String.init len (fun i -> Char.chr (i mod 251)) in
  Sthread.spawn s ~hw:2 (fun () ->
      ignore (Sthread.park_for 10_000) (* the SYN lands *);
      let out = Buffer.create 64 in
      Buffer.add_string out payload;
      Net.reply net c out;
      Buffer.clear out;
      Buffer.add_string out (String.make len 'z'));
  Sthread.run s;
  let expected = [ String.sub payload 0 mtu; String.sub payload mtu mtu; String.sub payload (2 * mtu) (len - (2 * mtu)) ] in
  Alcotest.(check (list string)) "MTU chunks of the buffer, in order" expected (List.rev !chunks);
  let st = Net.stats net in
  Alcotest.(check int) "one packet per chunk" 3 st.Net.pkts_tx;
  Alcotest.(check int) "every byte sent" len st.Net.bytes_tx;
  Alcotest.(check int) "one ring line per 64 B" ((len + 63) / 64) st.Net.local_lines

(* [recv] moves [min max ready] bytes from the connection into the
   caller's decoder, charges one ring line per started 64 B it moved, and
   lets in the packets the window held back. The bytes parse as the
   requests sent, in order. *)
let test_recv_into_decoder () =
  let s = mk () in
  let net = Net.create s ~config:{ Net.default_config with Net.rx_window = 2048 } () in
  let c = Net.connect net ~nic:0 ~tag:0 ~rx:(fun _ _ -> ()) () in
  let nreq = 600 in
  let b = Buffer.create 8192 in
  for i = 1 to nreq do
    Wire.encode_request b (Wire.Get [ string_of_int i ])
  done;
  let total = Buffer.length b in
  Net.send net c (Buffer.contents b);
  let dec = Wire.decoder () in
  let moved = ref 0 in
  Sthread.spawn s ~hw:2 (fun () ->
      let maxes = [| 0; 1; 63; 64; 65; 700; 4096 |] in
      let step = ref 0 in
      while !moved < total do
        ignore (Sthread.park_for 20_000);
        let max = maxes.(!step mod Array.length maxes) in
        incr step;
        let ready = Net.recv_ready c and before = Wire.buffered dec in
        let st = Net.stats net in
        let lines = st.Net.local_lines + st.Net.remote_lines in
        let n = Net.recv net c dec ~max in
        Alcotest.(check int) "moved min max ready" (Int.min max ready) n;
        Alcotest.(check int) "into the decoder" (before + n) (Wire.buffered dec);
        Alcotest.(check int) "left on the connection" (ready - n) (Net.recv_ready c);
        Alcotest.(check int) "ring lines charged" ((n + 63) / 64)
          (st.Net.local_lines + st.Net.remote_lines - lines);
        moved := !moved + n
      done);
  Sthread.run s;
  Alcotest.(check int) "every byte moved" total !moved;
  Alcotest.(check bool) "the window held packets back" true
    ((Net.stats net).Net.backpressured > 0);
  for i = 1 to nreq do
    match Wire.next_request dec with
    | Wire.Item (Wire.Get [ k ]) when k = string_of_int i -> ()
    | _ -> Alcotest.failf "request %d did not parse in order" i
  done;
  Alcotest.(check int) "decoder drained" 0 (Wire.buffered dec)

(* One [rx] and one [on_refused] handler serve every connection of a
   client, told apart by the tag each [connect] gave: three connections
   under the server's limit are answered, two over it refused. *)
let test_handlers_get_tags () =
  let s = mk () in
  let net = Net.create s () in
  let backend = Variants.stock s ~nclients:2 ~buckets:64 ~capacity:128 in
  backend.Variants.populate ~keys:[| 1 |] ~val_lines:1;
  let srv =
    Server.start s net ~backend { Server.default_config with npollers = 2; max_conns = 3 }
  in
  let answered = ref [] and refused = ref [] in
  let rx tag _ = answered := tag :: !answered in
  let on_refused tag = refused := tag :: !refused in
  (* one NIC: the SYNs serialize on its link, so they land in this order *)
  List.iter
    (fun tag -> Net.send net (Net.connect net ~nic:0 ~tag ~rx ~on_refused ()) "get 1\r\n")
    [ 10; 11; 12; 13; 14 ];
  Sthread.at s ~time:200_000 (fun () -> Server.stop srv);
  Sthread.run s;
  Alcotest.(check (list int)) "rx got the answered tags" [ 10; 11; 12 ]
    (List.sort compare !answered);
  Alcotest.(check (list int)) "on_refused got the refused tags" [ 13; 14 ]
    (List.sort compare !refused)

(* A connection makes its backlog queue only when the window first holds
   a packet back: after both drain, a connection that backpressured holds
   more words of its own than one that never did, whose rx queue dropped
   its buffer. Packets of 64 B against a 128 B window keep every buffer
   under the 256 B a drained queue drops. *)
let test_backlog_only_under_backpressure () =
  let s = mk () in
  let net = Net.create s ~config:{ Net.default_config with Net.rx_window = 128 } () in
  let rx _ _ = () in
  let calm = Net.connect net ~nic:0 ~tag:0 ~rx () in
  let pressed = Net.connect net ~nic:0 ~tag:1 ~rx () in
  let unused = Net.connect net ~nic:0 ~tag:2 ~rx () in
  Net.send net calm (String.make 64 'a');
  for _ = 1 to 8 do
    Net.send net pressed (String.make 64 'b')
  done;
  Sthread.spawn s ~hw:2 (fun () ->
      let dec = Wire.decoder () in
      let got = ref 0 in
      while !got < 9 * 64 do
        ignore (Sthread.park_for 1_000);
        got := !got + Net.recv net calm dec ~max:4096 + Net.recv net pressed dec ~max:4096
      done);
  Sthread.run s;
  Alcotest.(check int) "only the pressed connection was held back" 6
    (Net.stats net).Net.backpressured;
  (* the words only [c] holds: the connections share their NIC and [rx] *)
  let own c other = Obj.reachable_words (Obj.repr (c, other)) - Obj.reachable_words (Obj.repr other) in
  Alcotest.(check int) "a drained calm connection is as small as an unused one"
    (own unused pressed) (own calm pressed);
  Alcotest.(check bool) "only a backpressured connection keeps a backlog queue" true
    (own pressed calm > own calm pressed)

(* A released connection leaves nothing in its server but its slot in the
   table indexed by connection id: over 1,000 accept/close cycles the
   words the server reaches grow by at most 3 a cycle (the slot, at most
   2 with the table's doubling slack), where a kept sconn and its decoder
   would add 8 more. No byte moves, and 1,100 one-line ring pairs fit the machine's
   first directory chunk, so nothing else the server reaches grows. *)
let test_server_releases_closed_conns () =
  let s = mk () in
  let net = Net.create s ~config:{ Net.default_config with Net.ring_lines = 1 } () in
  let backend = Variants.stock s ~nclients:2 ~buckets:64 ~capacity:128 in
  let srv =
    Server.start s net ~backend { Server.default_config with npollers = 2; max_conns = 4 }
  in
  let gap = 20_000 and cycles = 1_100 and from = 100 in
  (* each cycle schedules the next, so the event queue stays as short *)
  let rec cycle i =
    if i < cycles then begin
      let c = Net.connect net ~nic:0 ~tag:i ~rx:(fun _ _ -> ()) () in
      Sthread.at s ~time:(Sthread.now s + (gap / 2)) (fun () -> Net.close net c);
      Sthread.at s ~time:(Sthread.now s + gap) (fun () -> cycle (i + 1))
    end
  in
  Sthread.at s ~time:1 (fun () -> cycle 0);
  let words = Array.make 2 0 in
  List.iteri
    (fun k at ->
      Sthread.at s ~time:at (fun () -> words.(k) <- Obj.reachable_words (Obj.repr srv)))
    [ from * gap; cycles * gap ];
  Sthread.at s ~time:((cycles * gap) + 1) (fun () -> Server.stop srv);
  Sthread.run s;
  Alcotest.(check int) "every connection accepted" cycles (Server.stats srv).Server.conns;
  Alcotest.(check int) "every close released" cycles (Server.stats srv).Server.closed;
  let per_cycle = float_of_int (words.(1) - words.(0)) /. float_of_int (cycles - from) in
  if per_cycle > 3.0 then
    Alcotest.failf "server grew %.2f words per accept/close cycle, budget 3" per_cycle

let suite =
  [
    ("open-loop rate checked", `Quick, test_open_loop_rate_checked);
    ("request round-trip under packetization", `Quick, test_request_roundtrip);
    ("response round-trip under packetization", `Quick, test_response_roundtrip);
    ("truncation never misparses", `Quick, test_truncation_safe);
    ("malformed input rejected", `Quick, test_malformed_rejected);
    ("oversized set resynchronizes", `Quick, test_oversized_set_resync);
    ("garbage bytes resynchronize", `Quick, test_garbage_resync);
    ("truncated multiget response", `Quick, test_truncated_multiget_response);
    ("byte queue", `Quick, test_byteq);
    QCheck_alcotest.to_alcotest qcheck_byteq_model;
    ("byte queue drops an idle buffer", `Quick, test_byteq_drops_idle_buffer);
    ("link timing", `Quick, test_link_timing);
    ("backpressure", `Quick, test_backpressure);
    ("reply cuts MTU packets from the buffer", `Quick, test_reply_chunks);
    ("recv moves bytes into the decoder", `Quick, test_recv_into_decoder);
    ("rx and on_refused get the connection's tag", `Quick, test_handlers_get_tags);
    ("backlog queue only under backpressure", `Quick, test_backlog_only_under_backpressure);
    ("server keeps nothing of closed connections", `Quick, test_server_releases_closed_conns);
  ]
  @ create_rejects_impossible
  @ [
    ("locality tally", `Quick, test_locality_tally);
    ("refusal and unlisten", `Quick, test_refusal);
    ("server end to end", `Quick, test_server_end_to_end);
    ("server connection limit", `Quick, test_server_connection_limit);
    ("connection churn soak", `Quick, test_connection_churn_soak);
    ("DPS fleet deterministic", `Quick, test_fleet_dps_deterministic);
    ("self-healing fleet", `Quick, test_fleet_self_healing_path);
    ("open-loop fleet", `Quick, test_fleet_open_loop);
    ("single-server router spreads connections over every NIC", `Quick, test_single_spreads_nics);
    ("timeouts count replies slower than the timeout", `Quick, test_timeouts_count_slow_replies);
    ("timeouts count requests unanswered at the end", `Quick, test_timeouts_count_unanswered);
    ("an idle DPS server costs no scheduling point", `Quick, test_idle_server_costs_nothing);
    QCheck_alcotest.to_alcotest qcheck_parked_servers_wake;
    ("doorbell counter", `Quick, test_doorbell_counter);
  ]
