(* dps-mc: run one memcached benchmark point from the command line.

     dune exec bin/dps_mc.exe -- --variant dps-parsec --ycsb b \
       --threads 80 --items 65536 --value-bytes 128

   Drives any of the five §5.3 memcached variants with a YCSB workload
   preset (A/B/C/D/F) or an explicit set ratio, printing throughput, hit
   behaviour and tail latency. *)

open Cmdliner
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Keydist = Dps_workload.Keydist
module Ycsb = Dps_workload.Ycsb
module Driver = Dps_workload.Driver
module Variants = Dps_memcached.Variants

type which = Stock | Parsec | Ffwd | Dps_v | Dps_parsec

let ( let* ) = Result.bind

(* Every flag's range, checked before anything is built. Every variant
   but ffwd pins one client per hardware thread; ffwd's clients share the
   hardware threads its server leaves free, so any count fits. *)
let check_args ~topo ~variant ~threads ~items ~value_bytes ~set_pct ~duration =
  let max_threads = if variant = Ffwd then max_int else Topology.nthreads topo in
  let* () = Cli_args.in_range "--threads" ~lo:1 ~hi:max_threads threads in
  let* () = Cli_args.in_range "--items" ~lo:1 items in
  let* () = Cli_args.in_range "--value-bytes" ~lo:1 value_bytes in
  let* () = Cli_args.in_range "--set" ~lo:0 ~hi:100 set_pct in
  Cli_args.in_range "--duration" ~lo:1 duration

let run_mc variant ycsb threads items value_bytes set_pct duration scaled seed =
  let config = if scaled then Machine.config_scaled () else Machine.config_default in
  let* () =
    check_args ~topo:config.Machine.topo ~variant ~threads ~items ~value_bytes ~set_pct ~duration
  in
  let m = Machine.create ~seed config in
  let sched = Sthread.create m in
  let buckets = max 256 items and capacity = 2 * items in
  let v =
    match variant with
    | Stock -> Variants.stock sched ~nclients:threads ~buckets ~capacity
    | Parsec -> Variants.parsec sched ~nclients:threads ~buckets ~capacity
    | Ffwd -> Variants.ffwd_mc sched ~nclients:threads ~buckets ~capacity
    | Dps_v -> Variants.dps_mc sched ~nclients:threads ~locality_size:10 ~buckets ~capacity ()
    | Dps_parsec ->
        Variants.dps_parsec sched ~nclients:threads ~locality_size:10 ~buckets ~capacity ()
  in
  let val_lines = (value_bytes + 63) / 64 in
  v.Variants.populate ~keys:(Array.init items Fun.id) ~val_lines;
  let gen =
    match ycsb with
    | Some w -> `Ycsb (Ycsb.make w ~items)
    | None -> `Ratio (Keydist.zipf ~range:items ())
  in
  let hits = ref 0 and gets = ref 0 in
  let op ~tid:_ ~step:_ =
    let p = Sthread.self_prng () in
    match gen with
    | `Ycsb g -> (
        match Ycsb.next g p with
        | Ycsb.Read, key ->
            incr gets;
            if v.Variants.get key then incr hits
        | (Ycsb.Update | Ycsb.Insert), key -> v.Variants.set ~key ~val_lines
        | Ycsb.Read_modify_write, key ->
            incr gets;
            if v.Variants.get key then incr hits;
            v.Variants.set ~key ~val_lines)
    | `Ratio dist ->
        let key = Keydist.sample dist p in
        if Prng.int p 100 < set_pct then v.Variants.set ~key ~val_lines
        else begin
          incr gets;
          if v.Variants.get key then incr hits
        end
  in
  let r =
    Driver.measure ~sched ~threads
      ~placement:(Array.init threads v.Variants.client_hw)
      ~duration
      ~prologue:(fun ~tid -> v.Variants.attach tid)
      ~epilogue:(fun ~tid:_ -> v.Variants.finish ())
      ~op ()
  in
  Format.printf "%a@." Driver.pp_result r;
  if !gets > 0 then
    Printf.printf "hit rate: %.3f (%d hits / %d gets)\n"
      (float_of_int !hits /. float_of_int !gets)
      !hits !gets;
  Ok ()

let variant =
  let alts =
    [
      ("stock", Stock);
      ("parsec", Parsec);
      ("ffwd", Ffwd);
      ("dps", Dps_v);
      ("dps-parsec", Dps_parsec);
    ]
  in
  Arg.(
    value
    & opt (enum alts) Dps_v
    & info [ "variant"; "v" ] ~doc:"Variant: stock, parsec, ffwd, dps, dps-parsec.")

let ycsb =
  let parse s =
    match Ycsb.of_string s with
    | Some w -> Ok (Some w)
    | None -> Error (`Msg "YCSB workload must be one of a, b, c, d, f")
  in
  let print ppf = function
    | Some w -> Format.pp_print_string ppf (Ycsb.to_string w)
    | None -> Format.pp_print_string ppf "none"
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "ycsb" ] ~doc:"YCSB preset (a/b/c/d/f); overrides --set.")

let threads = Arg.(value & opt int 80 & info [ "threads"; "t" ] ~doc:"Simulated client threads.")
let items = Arg.(value & opt int 65536 & info [ "items"; "n" ] ~doc:"Pre-populated items.")
let value_bytes = Arg.(value & opt int 128 & info [ "value-bytes" ] ~doc:"Value size in bytes.")
let set_pct = Arg.(value & opt int 1 & info [ "set" ] ~doc:"Set percentage (ignored with --ycsb).")
let duration = Arg.(value & opt int 300_000 & info [ "duration" ] ~doc:"Simulated cycles.")
let scaled =
  Arg.(
    value & opt bool true
    & info [ "scaled" ] ~doc:"Use the /16-scaled cache hierarchy (default true).")
let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Simulation seed.")

let cmd =
  let doc = "run one memcached benchmark point on the simulated NUMA machine" in
  Cmd.v (Cmd.info "dps-mc" ~doc)
    Term.(
      term_result' ~usage:true
        (const run_mc $ variant $ ycsb $ threads $ items $ value_bytes $ set_pct $ duration
       $ scaled $ seed))

let () = exit (Cmd.eval cmd)
