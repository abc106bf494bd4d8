(** The network figure: memcached served through the simulated NIC/link/DMA
    front-end, closed- and open-loop client fleets against three backends —
    shared-memory (stock), single-server delegation (ffwd) and DPS-ParSec.
    This is the end-to-end complement to Figure 13: the same store variants,
    but driven over connections with wire parsing, ring DMA and socket-aware
    connection placement instead of in-process call stubs. *)

open Bench_common
module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Net = Dps_net.Net
module Server = Dps_server.Server
module Netload = Dps_workload.Netload
module Variants = Dps_memcached.Variants

let items = if quick then 4096 else 16384

type which = Stock | Ffwd_mc | Dps_parsec

let name_of = function Stock -> "stock" | Ffwd_mc -> "ffwd" | Dps_parsec -> "DPS-ParSec"
let backends = [ Dps_parsec; Stock; Ffwd_mc ]

let make ?batch which sched ~npollers =
  let buckets = items and capacity = 2 * items in
  match which with
  | Stock -> Variants.stock sched ~nclients:npollers ~buckets ~capacity
  | Ffwd_mc -> Variants.ffwd_mc sched ~nclients:npollers ~buckets ~capacity
  | Dps_parsec ->
      Variants.dps_parsec sched ~serving:Dps.self_healing ?batch ~nclients:npollers
        ~locality_size:10 ~buckets ~capacity ()

type point = { r : Netload.result; local_pct : float; requests : int }

(* One point; [batch] (default 1) is DPS-ParSec's coalescing bound. *)
let run ?batch which ~nclients ~set_pct ~mode () =
  let m = Machine.create scaled_config in
  let sched = Sthread.create m in
  let net = Net.create sched () in
  let npollers = 40 in
  let backend = make ?batch which sched ~npollers in
  backend.Variants.populate ~keys:(Array.init items Fun.id) ~val_lines:2;
  let srv = Server.start sched net ~backend { Server.default_config with npollers } in
  let nconns = max 32 (min 256 (nclients / 16)) in
  let sp = Netload.spec ~nclients ~nconns ~set_pct ~key_range:items ?mode () in
  let rr =
    Netload.run_routed sched (Netload.single net) (Netload.rspec ~base:sp ())
      ~duration:default_duration
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  {
    r = rr.Netload.agg;
    local_pct = Net.local_fraction net *. 100.0;
    requests = (Server.stats srv).Server.requests;
  }

let record ~series ~x (p : point) =
  json_record ~series ~x
    [
      ("throughput_mops", p.r.Netload.throughput_mops);
      ("p50", float_of_int p.r.Netload.p50);
      ("p99", float_of_int p.r.Netload.p99);
      ("p999", float_of_int p.r.Netload.p999);
      ("local_pct", p.local_pct);
      ("completed", float_of_int p.r.Netload.completed);
      ("errors", float_of_int p.r.Netload.errors);
    ]

let print_points ~label (xs : (string * point) list) =
  List.iter (fun (x, p) -> record ~series:label ~x p) xs;
  Printf.printf "%-14s %s\n" label
    (String.concat "  " (List.map (fun (x, _) -> Printf.sprintf "%10s" x) xs));
  Printf.printf "%-14s %s  (Mops/s)\n" ""
    (String.concat "  "
       (List.map (fun (_, p) -> Printf.sprintf "%10.3f" p.r.Netload.throughput_mops) xs));
  Printf.printf "%-14s %s  (p99 cyc)\n" ""
    (String.concat "  " (List.map (fun (_, p) -> Printf.sprintf "%10d" p.r.Netload.p99) xs));
  Printf.printf "%-14s %s  (local %%)\n%!" ""
    (String.concat "  " (List.map (fun (_, p) -> Printf.sprintf "%10.1f" p.local_pct) xs))

let client_counts = if quick then [ 64; 4096 ] else [ 64; 256; 1024; 4096; 16384; 65536 ]

(* All (backend x point) simulations of a panel in one fan-out. *)
let panel ~xs run_of =
  List.iter
    (fun (label, pts) -> print_points ~label pts)
    (run_series
       (List.map
          (fun which -> (name_of which, List.map (fun (x, p) -> (x, fun () -> run_of which p)) xs))
          backends))

let net_clients () =
  print_header "Net (a): closed-loop throughput vs simulated clients, 10% set";
  panel
    ~xs:(List.map (fun n -> (string_of_int n, n)) client_counts)
    (fun which n -> run which ~nclients:n ~set_pct:10 ~mode:None ())

let net_sets () =
  print_header "Net (b): closed-loop throughput vs set ratio, 4096 clients";
  let ratios = if quick then [ 1; 99 ] else [ 1; 20; 40; 60; 80; 99 ] in
  panel
    ~xs:(List.map (fun s -> (string_of_int s, s)) ratios)
    (fun which s -> run which ~nclients:4096 ~set_pct:s ~mode:None ())

let net_open () =
  print_header "Net (c): open-loop tail latency vs offered load (Mops/s), 10% set";
  let rates = if quick then [ 40.0 ] else [ 10.0; 20.0; 40.0; 60.0; 80.0 ] in
  panel
    ~xs:(List.map (fun r -> (Printf.sprintf "%g" r, r)) rates)
    (fun which r ->
      run which ~nclients:4096 ~set_pct:10 ~mode:(Some (Netload.Open { rate_mops = r })) ())

let all () =
  net_clients ();
  net_sets ();
  net_open ()
