module Prng = Dps_simcore.Prng
module Stats = Dps_simcore.Stats

type kind = Read | Write | Rmw
type policy = On_node of int | Interleave

type config = {
  topo : Topology.t;
  costs : Costs.t;
  priv_lines : int;
  llc_lines : int;
  tlb_entries : int;  (* pages per core; a page is 64 lines (4 KB) *)
}

let config_default =
  {
    topo = Topology.default;
    costs = Costs.default;
    priv_lines = 4096 (* 256 KB of 64 B lines *);
    llc_lines = 393216 (* 24 MB *);
    tlb_entries = 512 (* 2 MB of reach *);
  }

let scale_factor = 16

let config_scaled () =
  {
    config_default with
    priv_lines = Int.max 64 (config_default.priv_lines / scale_factor);
    llc_lines = Int.max 512 (config_default.llc_lines / scale_factor);
    tlb_entries = Int.max 16 (config_default.tlb_entries / scale_factor);
  }

(* [wbusy]: the simulated time until which the line's ownership is in
   transit. Writes from different cores must acquire ownership serially —
   a single hot line is a global serialization point, which is precisely
   the contention collapse of §2 — while reads of a shared line replicate
   and serve in parallel.

   The directory also records presence: [sharers] is a core mask and
   [in_llc] a socket mask (bit [i] is core or socket [i]). Core [c]'s
   private box holds the line exactly when [owner = c] or bit [c] of
   [sharers] is set, and socket [s]'s LLC exactly when bit [s] of [in_llc]
   is set, so the access paths test membership on the record they already
   loaded; the boxes are touched only to insert an absent line or to
   remove one.

   [meta] packs the rest into one int, so a record is 5 words, not 7:
   bits 0-5 hold [owner + 1] (0 when no core owns the line), bit 6 is
   [dirty] (modified relative to DRAM: an eviction writes back) and the
   bits from 7 up hold the fixed [home] socket. [create] bounds cores and
   sockets to 63, so both fit. *)
type line = {
  mutable meta : int;
  mutable sharers : int;
  mutable in_llc : int;
  mutable wbusy : int;
}

let[@inline] owner l = (l.meta land 63) - 1
let[@inline] set_owner l core = l.meta <- (l.meta land lnot 63) lor (core + 1)
let[@inline] dirty l = l.meta land 64 <> 0
let[@inline] set_dirty l d = l.meta <- (if d then l.meta lor 64 else l.meta land lnot 64)
let[@inline] home l = l.meta lsr 7

(* A run of addresses with one policy. [alloc] extends the last region
   instead of adding one when both are [On_node] the same node. *)
type region = { base : int; mutable nlines : int; pol : policy }

(* Placeholder for never-touched entries of the dense directory, compared
   physically; never written, and its empty masks read as absent
   everywhere. *)
let no_line = { meta = 0; sharers = 0; in_llc = 0; wbusy = 0 }

(* The directory is a spine of fixed-size chunks: growing it copies the
   spine, not the entries, and leaves no doubling slack. *)
let chunk_bits = 14
let chunk_mask = (1 lsl chunk_bits) - 1

let line_bytes = 64

(* The live cells of the {!stats} counters, resolved once at [create]:
   the access paths bump a cell instead of hashing a counter name per
   increment. *)
type counters = {
  accesses : int ref;
  priv_hits : int ref;
  llc_hits : int ref;
  llc_misses : int ref;
  remote_misses : int ref;
  invalidations : int ref;
  tlb_misses : int ref;
  dram_queueing : int ref;
  write_queueing : int ref;
  bw_mc_queueing : int ref;
  bw_link_queueing : int ref;
  bw_writebacks : int ref;
  bw_dma_bytes : int ref;
}

let counters stats =
  let c = Stats.counter stats in
  {
    accesses = c "accesses";
    priv_hits = c "priv_hits";
    llc_hits = c "llc_hits";
    llc_misses = c "llc_misses";
    remote_misses = c "remote_misses";
    invalidations = c "invalidations";
    tlb_misses = c "tlb_misses";
    dram_queueing = c "dram_queueing";
    write_queueing = c "write_queueing";
    bw_mc_queueing = c "bw_mc_queueing";
    bw_link_queueing = c "bw_link_queueing";
    bw_writebacks = c "bw_writebacks";
    bw_dma_bytes = c "bw_dma_bytes";
  }

(* Every finite resource is one [Bwbucket], keyed by resource id: each
   node's DRAM service queue ([dram]) and memory controller ([mc]), and
   each directed interconnect edge ([link], by [Topology.link_index]). A
   resource whose rate [costs.bw] leaves at 0 does not exist: its array
   is empty and charging it is free. *)
type t = {
  cfg : config;
  priv : Cachebox.t array;  (* per physical core *)
  tlb : Cachebox.t array;  (* per physical core, in pages *)
  llc : Cachebox.t array;  (* per socket *)
  socket_cores : int array;  (* per socket, the mask of its cores *)
  mutable lines : line array array;
    (* The coherence directory, keyed directly by line index: chunk
       [addr lsr chunk_bits], entry [addr land chunk_mask]. [alloc] hands
       out addresses densely from 0 and adds the chunks [next_addr]
       reaches; entries materialize lazily on first touch. *)
  mutable tlb_cores : int array;
    (* per page (64 lines), the mask of the cores whose TLB holds it:
       TLB presence, as [sharers] is private-cache presence; grown with
       [next_addr] *)
  dram : Bwbucket.t array;
  mc : Bwbucket.t array;
  link : Bwbucket.t array;
  mutable bw_delay : int;
    (* bandwidth part of the fill delays since the last [access_mlp], which
       exempts it from pipelining: latency hides behind memory-level
       parallelism, bandwidth does not *)
  mutable regions : region array;
  mutable nregions : int;
  mutable next_addr : int;
  stats : Stats.t;
  count : counters;  (* cells of [stats] *)
  active : bool array;
  sibling : int array;
      (* each hardware thread's hyperthread sibling, itself if it has none:
         [work_cost] reads it without the option [Topology] returns *)
}

let buckets n ~rate ~per ~burst =
  if rate = 0 || per = 0 then [||] else Array.init n (fun _ -> Bwbucket.create ~rate ~per ~burst)

let create ?(seed = 42L) cfg =
  let topo = cfg.topo in
  if Topology.ncores topo > Sys.int_size || topo.Topology.sockets > Sys.int_size then
    invalid_arg
      (Printf.sprintf "Machine.create: %d cores on %d sockets exceed the %d-bit presence masks"
         (Topology.ncores topo) topo.Topology.sockets Sys.int_size);
  List.iter
    (fun (field, n) ->
      if n < 1 || n > Cachebox.max_capacity then
        invalid_arg
          (Printf.sprintf "Machine.create: %s = %d outside [1, %d]" field n Cachebox.max_capacity))
    [
      ("priv_lines", cfg.priv_lines);
      ("llc_lines", cfg.llc_lines);
      ("tlb_entries", cfg.tlb_entries);
    ];
  let root = Prng.create seed in
  let bw = cfg.costs.Costs.bw in
  let stats = Stats.create () in
  {
    cfg;
    priv =
      Array.init (Topology.ncores topo) (fun _ ->
          Cachebox.create ~capacity:cfg.priv_lines (Prng.split root));
    tlb =
      Array.init (Topology.ncores topo) (fun _ ->
          Cachebox.create ~capacity:cfg.tlb_entries (Prng.split root));
    llc =
      Array.init topo.Topology.sockets (fun _ ->
          Cachebox.create ~capacity:cfg.llc_lines (Prng.split root));
    socket_cores =
      Array.init topo.Topology.sockets (fun s ->
          let m = ref 0 in
          for c = 0 to Topology.ncores topo - 1 do
            if Topology.socket_of_core topo c = s then m := !m lor (1 lsl c)
          done;
          !m);
    lines = [||];
    tlb_cores = [||];
    (* one line of burst: a FIFO server taking [dram_cycles_per_line] per line *)
    dram =
      buckets topo.Topology.sockets ~rate:line_bytes ~per:bw.Costs.dram_cycles_per_line
        ~burst:line_bytes;
    mc =
      buckets topo.Topology.sockets ~rate:bw.Costs.mc_bytes_per_cycle ~per:1
        ~burst:bw.Costs.mc_burst;
    link =
      buckets (Topology.nlinks topo) ~rate:bw.Costs.link_bytes_per_cycle ~per:1
        ~burst:bw.Costs.link_burst;
    bw_delay = 0;
    regions = Array.make 16 { base = 0; nlines = 0; pol = Interleave };
    nregions = 0;
    next_addr = 0;
    stats;
    count = counters stats;
    active = Array.make (Topology.nthreads topo) false;
    sibling =
      Array.init (Topology.nthreads topo) (fun hw ->
          Option.value ~default:hw (Topology.sibling_of_thread topo hw));
  }

let topology t = t.cfg.topo
let config t = t.cfg
let stats t = t.stats

(* [a] grown to at least [n] entries, doubling, new entries [fill] *)
let grown a n fill =
  if n <= Array.length a then a
  else begin
    let bigger = Array.make (Int.max n (2 * Array.length a)) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

let alloc t pol ~lines =
  if lines < 1 then invalid_arg (Printf.sprintf "Machine.alloc: %d lines" lines);
  let sockets = t.cfg.topo.Topology.sockets in
  (match pol with
  | On_node n when n < 0 || n >= sockets ->
      invalid_arg (Printf.sprintf "Machine.alloc: node %d on a %d-socket machine" n sockets)
  | On_node _ | Interleave -> ());
  let base = t.next_addr in
  t.next_addr <- base + lines;
  let chunks = ((t.next_addr - 1) lsr chunk_bits) + 1 in
  let have = Array.length t.lines in
  if chunks > have then begin
    let chunk c = if c < have then t.lines.(c) else Array.make (1 lsl chunk_bits) no_line in
    t.lines <- Array.init chunks chunk;
    t.tlb_cores <- grown t.tlb_cores ((chunks lsl chunk_bits) / 64) 0
  end;
  let last = if t.nregions = 0 then None else Some t.regions.(t.nregions - 1) in
  (match (last, pol) with
  | Some ({ pol = On_node m; _ } as r), On_node n when m = n -> r.nlines <- r.nlines + lines
  | _ ->
      t.regions <- grown t.regions (t.nregions + 1) t.regions.(0);
      t.regions.(t.nregions) <- { base; nlines = lines; pol };
      t.nregions <- t.nregions + 1);
  base

let region_of t addr =
  (* Regions have strictly increasing bases: binary search. *)
  let lo = ref 0 and hi = ref (t.nregions - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.regions.(mid) in
    if addr < r.base then hi := mid - 1
    else if addr >= r.base + r.nlines then lo := mid + 1
    else begin
      found := Some r;
      lo := !hi + 1
    end
  done;
  match !found with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Machine: access to unallocated address %d" addr)

let compute_home t addr =
  let r = region_of t addr in
  match r.pol with
  | On_node n -> n
  | Interleave -> (addr - r.base) mod t.cfg.topo.Topology.sockets

(* First touch of a line; [compute_home] rejects an unallocated address. *)
let fresh_line t addr =
  let l = { meta = compute_home t addr lsl 7; sharers = 0; in_llc = 0; wbusy = 0 } in
  t.lines.(addr lsr chunk_bits).(addr land chunk_mask) <- l;
  l

(* The directory entry of an allocated address, [no_line] if untouched. *)
let[@inline] entry t addr = t.lines.(addr lsr chunk_bits).(addr land chunk_mask)

let[@inline] line_of t addr =
  let l = if addr >= 0 && addr < t.next_addr then entry t addr else no_line in
  if l != no_line then l else fresh_line t addr

let home_of t addr = home (line_of t addr)

(* Whether [core]'s private cache holds [line] (the presence invariant). *)
let[@inline] holds line core = owner line = core || line.sharers land (1 lsl core) <> 0

(* Insert a line [core] does not hold. A line falling out of a private
   cache loses its coherence permissions: dirty data is considered written
   back to the socket LLC. *)
let priv_insert t core addr =
  match Cachebox.add t.priv.(core) addr with
  | None -> ()
  | Some victim ->
      let l = entry t victim in
      l.sharers <- l.sharers land lnot (1 lsl core);
      if owner l = core then set_owner l (-1)

(* Remove [addr] from box [i] for every bit [i] of [mask]. *)
let remove_all boxes mask addr =
  let m = ref mask and i = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then Cachebox.remove boxes.(!i) addr;
    m := !m lsr 1;
    incr i
  done

let bw_enabled t = Array.length t.mc > 0

(* Charge one line to resource [i] of one kind, or to the edge
   [src -> dst]; free when the kind does not exist. Returns the queueing
   delay. *)
let charge res i ~now =
  if Array.length res = 0 then 0 else Bwbucket.charge res.(i) ~now ~bytes:line_bytes

let charge_edge t ~src ~dst ~now =
  if Array.length t.link = 0 then 0
  else Bwbucket.charge t.link.(Topology.link_index t.cfg.topo ~src ~dst) ~now ~bytes:line_bytes

let queued cell d =
  if d > 0 then incr cell;
  d

(* Insert [line] into [sock]'s LLC unless it is there already. An LLC
   eviction of a modified line streams it back to the DRAM of its home
   node — memory-controller bytes, plus interconnect bytes when the
   evicting socket is not the home. Write-backs are posted (they do not
   delay the access that caused the eviction) but they drain the same
   token buckets, so later fills queue behind them. Only exists when
   byte accounting is on: with [bw:0] the eviction is free, as it always
   was. *)
let llc_insert t ~now sock line addr =
  let bit = 1 lsl sock in
  if line.in_llc land bit = 0 then begin
    line.in_llc <- line.in_llc lor bit;
    match Cachebox.add t.llc.(sock) addr with
    | None -> ()
    | Some victim ->
        let l = entry t victim in
        l.in_llc <- l.in_llc land lnot bit;
        if dirty l && bw_enabled t then begin
          set_dirty l false;
          incr t.count.bw_writebacks;
          ignore (charge t.mc (home l) ~now);
          if home l <> sock then ignore (charge_edge t ~src:sock ~dst:(home l) ~now)
        end
  end

(* Lowest-numbered other socket whose LLC holds the line, or -1: the
   transfer source for a cross-socket LLC hit. *)
let llc_socket_elsewhere line sock =
  let m = line.in_llc land lnot (1 lsl sock) in
  if m = 0 then -1
  else begin
    let s = ref 0 in
    while m land (1 lsl !s) = 0 do
      incr s
    done;
    !s
  end

let fetch_cost t line ~core ~sock =
  let c = t.cfg.costs in
  let topo = t.cfg.topo in
  let owner = owner line in
  if owner >= 0 && owner <> core then begin
    let owner_sock = Topology.socket_of_core topo owner in
    if owner_sock = sock then (c.Costs.llc_hit, `Local_transfer)
    else (c.Costs.llc_remote, `Remote owner_sock)
  end
  else if line.in_llc land (1 lsl sock) <> 0 then (c.Costs.llc_hit, `Llc)
  else begin
    let src = llc_socket_elsewhere line sock in
    if src >= 0 then (c.Costs.llc_remote, `Remote src)
    else if home line = sock then (c.Costs.dram_local, `Dram)
    else (c.Costs.dram_remote, `Remote_dram)
  end

let count_fetch t = function
  | `Local_transfer | `Llc -> incr t.count.llc_hits
  | `Remote _ | `Remote_dram ->
      incr t.count.llc_misses;
      incr t.count.remote_misses
  | `Dram -> incr t.count.llc_misses

(* Queueing delay of one line fill. DRAM fills wait in the home node's
   DRAM service queue and drain its memory controller; cross-socket
   transfers drain the edge from the source socket; remote DRAM fills do
   both. The transfers overlap, so the fill waits for the slowest
   resource. The service queue's wait is a latency stall; whatever the
   bandwidth buckets add on top is a bandwidth stall, accumulated in
   [bw_delay] for {!access_mlp}. *)
let fill_delay t ~now ~sock line src =
  let from_dram = match src with `Dram | `Remote_dram -> true | _ -> false in
  let q = if from_dram then queued t.count.dram_queueing (charge t.dram (home line) ~now) else 0 in
  let mc = if from_dram then queued t.count.bw_mc_queueing (charge t.mc (home line) ~now) else 0 in
  let link =
    match src with
    | `Remote_dram ->
        queued t.count.bw_link_queueing (charge_edge t ~src:(home line) ~dst:sock ~now)
    | `Remote s -> queued t.count.bw_link_queueing (charge_edge t ~src:s ~dst:sock ~now)
    | `Dram | `Local_transfer | `Llc | `Upgrade -> 0
  in
  let bw = Int.max 0 (Int.max mc link - q) in
  t.bw_delay <- t.bw_delay + bw;
  if Dps_obs.Obs.profiling_on () then begin
    Dps_obs.Obs.note_stall q;
    Dps_obs.Obs.note_bw_stall bw
  end;
  q + bw

let invalidation_cost t line ~core ~sock =
  let c = t.cfg.costs in
  (* sharers other than [core] and the owner, whose copy goes with the transfer *)
  let others = line.sharers land lnot (1 lsl core) in
  let owner = owner line in
  let others = if owner >= 0 then others land lnot (1 lsl owner) else others in
  if others land lnot t.socket_cores.(sock) <> 0 then c.Costs.inval_remote
  else if others <> 0 then c.Costs.inval_local
  else 0

let do_invalidate t line ~core ~sock ~addr =
  let owner = owner line in
  let holders = if owner >= 0 then line.sharers lor (1 lsl owner) else line.sharers in
  remove_all t.priv (holders land lnot (1 lsl core)) addr;
  remove_all t.llc (line.in_llc land lnot (1 lsl sock)) addr;
  line.in_llc <- line.in_llc land (1 lsl sock);
  line.sharers <- 1 lsl core;
  set_owner line core;
  set_dirty line true

(* Address translation: the page walk reads page tables homed where the
   page lives, so pointer chases over big remote working sets pay remote
   walks — part of the NUMA penalty DPS's partitioning removes. *)
let tlb_cost t ~core ~sock line addr =
  let page = addr lsr 6 in
  let bit = 1 lsl core in
  if t.tlb_cores.(page) land bit <> 0 then 0
  else begin
    incr t.count.tlb_misses;
    t.tlb_cores.(page) <- t.tlb_cores.(page) lor bit;
    (match Cachebox.add t.tlb.(core) page with
    | Some victim -> t.tlb_cores.(victim) <- t.tlb_cores.(victim) land lnot bit
    | None -> ());
    if home line = sock then t.cfg.costs.Costs.walk_local else t.cfg.costs.Costs.walk_remote
  end

let access_slow t ~now ~core ~line ~addr ~kind =
  let topo = t.cfg.topo in
  let sock = Topology.socket_of_core topo core in
  let c = t.cfg.costs in
  incr t.count.accesses;
  let translation = tlb_cost t ~core ~sock line addr in
  match kind with
  | Read ->
      if holds line core then begin
        incr t.count.priv_hits;
        translation + c.Costs.priv_hit
      end
      else begin
        let cost, src = fetch_cost t line ~core ~sock in
        count_fetch t src;
        let delay = fill_delay t ~now ~sock line src in
        let owner = owner line in
        if owner >= 0 then begin
          (* Dirty remote copy becomes shared. *)
          line.sharers <- line.sharers lor (1 lsl owner);
          set_owner line (-1)
        end;
        line.sharers <- line.sharers lor (1 lsl core);
        priv_insert t core addr;
        llc_insert t ~now sock line addr;
        translation + delay + cost
      end
  | Write | Rmw ->
      let extra = if kind = Rmw then c.Costs.rmw_extra else 0 in
      if owner line = core then begin
        incr t.count.priv_hits;
        translation + c.Costs.priv_hit + extra
      end
      else begin
        let shared = line.sharers land (1 lsl core) <> 0 in
        let fetch, src =
          if shared then (c.Costs.priv_hit, `Upgrade) else fetch_cost t line ~core ~sock
        in
        (match src with
        | `Upgrade -> incr t.count.priv_hits
        | (`Local_transfer | `Llc | `Remote _ | `Dram | `Remote_dram) as s -> count_fetch t s);
        let delay = fill_delay t ~now ~sock line src in
        let inval = invalidation_cost t line ~core ~sock in
        if inval > 0 then incr t.count.invalidations;
        do_invalidate t line ~core ~sock ~addr;
        if not shared then priv_insert t core addr;
        llc_insert t ~now sock line addr;
        (* Ownership transfers of one line serialize: queue behind any
           transfer still in flight. *)
        let transfer = fetch + inval + extra in
        let queue = Int.max 0 (line.wbusy - now) in
        if queue > 0 then incr t.count.write_queueing;
        line.wbusy <- Int.max now line.wbusy + transfer;
        if queue > 0 && Dps_obs.Obs.profiling_on () then Dps_obs.Obs.note_stall queue;
        translation + delay + queue + transfer
      end

let access t ~now ~thread ~addr ~kind =
  let core = Topology.core_of_thread t.cfg.topo thread in
  let line = line_of t addr in
  (* Host-speed fast path for the overwhelmingly common case: a read of a
     line already in this core's private cache with a warm TLB entry. The
     slow path would charge exactly [priv_hit] with translation 0 and
     mutate nothing, so this only saves host time. *)
  if kind = Read && holds line core && t.tlb_cores.(addr lsr 6) land (1 lsl core) <> 0 then begin
    incr t.count.accesses;
    incr t.count.priv_hits;
    t.cfg.costs.Costs.priv_hit
  end
  else access_slow t ~now ~core ~line ~addr ~kind

let check_presence t =
  let err = ref None in
  let expect what key box_name i box held =
    if !err = None && Cachebox.mem box key <> held then
      err :=
        Some
          (Printf.sprintf "%s %d: the directory says %s in the %s %d, the box disagrees" what key
             (if held then "present" else "absent")
             box_name i)
  in
  for addr = 0 to t.next_addr - 1 do
    let l = entry t addr in
    Array.iteri (fun c box -> expect "line" addr "private cache of core" c box (holds l c)) t.priv;
    Array.iteri
      (fun s box -> expect "line" addr "LLC of socket" s box (l.in_llc land (1 lsl s) <> 0))
      t.llc
  done;
  for page = 0 to (t.next_addr - 1) / 64 do
    let cores = t.tlb_cores.(page) in
    Array.iteri
      (fun c box -> expect "page" page "TLB of core" c box (cores land (1 lsl c) <> 0))
      t.tlb
  done;
  List.iter
    (fun (box_name, boxes) ->
      Array.iteri
        (fun i box ->
          if !err = None && not (Cachebox.index_ok box) then
            err :=
              Some
                (Printf.sprintf "the address index of the %s %d disagrees with its slots" box_name
                   i))
        boxes)
    [ ("private cache of core", t.priv); ("LLC of socket", t.llc); ("TLB of core", t.tlb) ];
  match !err with None -> Ok () | Some e -> Error e

(* Pipelined access for streaming code (memory-level parallelism): the
   latency portion divides by [factor], but the bandwidth-bucket portion
   does not — overlapping requests hides latency, it cannot create
   bytes-per-cycle. With bandwidth off this is exactly the historical
   [max 1 (cost / factor)]. *)
let access_mlp t ~now ~thread ~addr ~kind ~factor =
  t.bw_delay <- 0;
  let cost = access t ~now ~thread ~addr ~kind in
  let bwd = Int.min t.bw_delay cost in
  Int.max 1 ((cost - bwd) / factor) + bwd

(* NIC DDIO traffic: packet payload streamed by a DMA engine drains the
   socket's memory-controller bucket like any other memory traffic, so
   network and application bandwidth honestly contend. Returns the
   queueing delay; 0 (and no accounting) when byte accounting is off. *)
let bw_charge_dma t ~now ~socket ~bytes =
  if not (bw_enabled t) then 0
  else begin
    t.count.bw_dma_bytes := !(t.count.bw_dma_bytes) + bytes;
    queued t.count.bw_mc_queueing (Bwbucket.charge t.mc.(socket) ~now ~bytes)
  end

type bw_snapshot = {
  mc_bytes : int array;  (* per socket *)
  mc_queue_cycles : int array;
  link_bytes : int array array;  (* [src].(dst); diagonal 0 *)
  link_queue_cycles : int array array;
  writebacks : int;
}

let bw_snapshot t =
  if not (bw_enabled t) then None
  else begin
    let topo = t.cfg.topo in
    let n = topo.Topology.sockets in
    let link_bytes = Array.make_matrix n n 0 in
    let link_queue_cycles = Array.make_matrix n n 0 in
    Array.iteri
      (fun i b ->
        let src, dst = Topology.link_ends topo i in
        link_bytes.(src).(dst) <- Bwbucket.bytes b;
        link_queue_cycles.(src).(dst) <- Bwbucket.queue_cycles b)
      t.link;
    Some
      {
        mc_bytes = Array.map Bwbucket.bytes t.mc;
        mc_queue_cycles = Array.map Bwbucket.queue_cycles t.mc;
        link_bytes;
        link_queue_cycles;
        writebacks = !(t.count.bw_writebacks);
      }
  end

let interconnect_bytes t = Array.fold_left (fun acc b -> acc + Bwbucket.bytes b) 0 t.link

let set_active t ~thread v = t.active.(thread) <- v

let work_cost t ~thread n =
  let sib = t.sibling.(thread) in
  if sib <> thread && t.active.(sib) then n * 8 / 5 else n

let cycles_to_seconds t cycles = float_of_int cycles /. (t.cfg.topo.Topology.ghz *. 1e9)

let register_obs t reg =
  let counters =
    [
      "accesses";
      "priv_hits";
      "llc_hits";
      "llc_misses";
      "remote_misses";
      "invalidations";
      "tlb_misses";
      "dram_queueing";
      "write_queueing";
    ]
  in
  List.iter
    (fun name ->
      Dps_obs.Registry.gauge_fn reg ~help:("machine model counter " ^ name)
        ("machine." ^ name)
        (fun () -> float_of_int (Stats.get t.stats name)))
    (if bw_enabled t then
       counters @ [ "bw_mc_queueing"; "bw_link_queueing"; "bw_writebacks"; "bw_dma_bytes" ]
     else counters);
  Array.iteri
    (fun s b ->
      let labels = [ ("socket", string_of_int s) ] in
      Dps_obs.Registry.gauge_fn reg ~labels ~help:"memory-controller bytes charged"
        "machine.bw_mc_bytes"
        (fun () -> float_of_int (Bwbucket.bytes b));
      Dps_obs.Registry.gauge_fn reg ~labels ~help:"cycles spent queued on the memory controller"
        "machine.bw_mc_queue_cycles"
        (fun () -> float_of_int (Bwbucket.queue_cycles b));
      Dps_obs.Registry.gauge_fn reg ~labels
        ~help:"memory-controller occupancy, 0 (idle) to 1 (token debt)"
        "machine.bw_mc_occupancy"
        (fun () ->
          let tokens = float_of_int (Bwbucket.tokens b) in
          let burst = float_of_int (Bwbucket.burst b) in
          Float.max 0. (Float.min 1. (1. -. (tokens /. burst)))))
    t.mc;
  Array.iteri
    (fun i b ->
      let src, dst = Topology.link_ends t.cfg.topo i in
      let labels = [ ("src", string_of_int src); ("dst", string_of_int dst) ] in
      Dps_obs.Registry.gauge_fn reg ~labels ~help:"interconnect-link bytes charged"
        "machine.bw_link_bytes"
        (fun () -> float_of_int (Bwbucket.bytes b));
      Dps_obs.Registry.gauge_fn reg ~labels ~help:"cycles spent queued on the link"
        "machine.bw_link_queue_cycles"
        (fun () -> float_of_int (Bwbucket.queue_cycles b)))
    t.link
