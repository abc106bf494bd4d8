type bw = {
  dram_cycles_per_line : int;
  mc_bytes_per_cycle : int;
  link_bytes_per_cycle : int;
  mc_burst : int;
  link_burst : int;
}

type t = {
  priv_hit : int;
  llc_hit : int;
  llc_remote : int;
  dram_local : int;
  dram_remote : int;
  inval_local : int;
  inval_remote : int;
  rmw_extra : int;
  walk_local : int;
  walk_remote : int;
  bw : bw;
}

(* Bandwidth accounting off ([bw:0]): the machine charges per-access
   latency plus one finite resource, each node's DRAM service queue. A
   node's memory controller streams one line every 6 cycles; fetches that
   reach DRAM queue behind it. A working set homed on one node (the
   default "node local" policy of Table 2) therefore saturates that node,
   while interleaving spreads the load — exactly the paper's
   observation. *)
let bw_off =
  {
    dram_cycles_per_line = 6;
    mc_bytes_per_cycle = 0;
    link_bytes_per_cycle = 0;
    mc_burst = 0;
    link_burst = 0;
  }

(* Calibrated by the STREAM figure (bench/fig_stream.ml): at 2 GHz,
   28 B/cycle per socket is 56 GB/s of memory-controller bandwidth and
   6 B/cycle per link direction is 12 GB/s of interconnect. With the
   figure's factor-16 streaming kernels a single local core demands about
   a third of its memory controller while a remote core demands half its
   inbound link, so the remote sweep knees a core earlier and plateaus at
   roughly a third of the local ceiling — the classic STREAM/NUMA shape.
   Bursts of a few KB let short transfer trains through un-queued. The
   byte-rate controller bucket is the controller's queue here, so the
   per-line service queue is off. *)
let bw_default =
  {
    dram_cycles_per_line = 0;
    mc_bytes_per_cycle = 28;
    link_bytes_per_cycle = 6;
    mc_burst = 8192;
    link_burst = 4096;
  }

(* [bw_off] plus byte counting: buckets so wide every transfer is
   admitted with zero delay, so every charge is exactly [bw_off]'s while
   the byte counters run — the configuration of the bytes-per-op A/B in
   bench/fig_stream. *)
let bw_unlimited =
  {
    bw_off with
    mc_bytes_per_cycle = 1 lsl 40;
    link_bytes_per_cycle = 1 lsl 40;
    mc_burst = 1 lsl 50;
    link_burst = 1 lsl 50;
  }

let default =
  {
    priv_hit = 6;
    llc_hit = 44;
    llc_remote = 220;
    dram_local = 150;
    dram_remote = 320;
    inval_local = 44;
    inval_remote = 180;
    rmw_extra = 18;
    walk_local = 90;
    walk_remote = 200;
    bw = bw_off;
  }
