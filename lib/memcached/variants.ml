(** The five memcached configurations of §5.3, behind one client-facing
    record so benchmarks and examples drive them identically:

    - [stock]: one shared instance; locked-LRU read path.
    - [parsec]: one shared instance; store-free (CLOCK) read path.
    - [ffwd_mc]: everything delegated to a single ffwd server.
    - [dps_mc]: hash table, LRU and slab all partitioned with DPS;
      sets delegated asynchronously, gets synchronously.
    - [dps_parsec]: DPS partitioning over the ParSec-style core; gets run
      locally (§4.4 local execution) since they are store-free. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology

type t = {
  name : string;
  attach : int -> unit;  (** call once per client thread, with its index *)
  get : int -> bool;
  set : key:int -> val_lines:int -> unit;
  set_tagged : (key:int -> val_lines:int -> tag:int -> unit) option;
      (** like [set] but carrying a client-chosen tag delivered to the
          variant's [on_set_applied] hook when the write actually lands *)
  del : int -> bool;  (** delete; [true] if the key was present *)
  finish : unit -> unit;  (** call when the client stops issuing *)
  populate : keys:int array -> val_lines:int -> unit;  (** cold pre-load *)
  client_hw : int -> int;  (** where to pin client [i] *)
  idle : (unit -> int) option;
      (** bounded background duty for an idle client (DPS ring draining);
          returns the number of operations served so the caller can tell a
          useful round from an empty one *)
  version_of : (int -> int) option;
      (** charged read of a key's write-version — the validation side of a
          delegation-coherent front cache; [None] unless the variant was
          built with [~versions] > 0 *)
  health : (unit -> Dps.health) option;
      (** watchdog snapshot for variants with a self-healing runtime *)
  register_obs : (labels:(string * string) list -> Dps_obs.Registry.t -> unit) option;
      (** publish the backend runtime's metrics under instance [labels] *)
}

let shared_core sched ~recency ~buckets ~capacity =
  let m = Sthread.machine sched in
  let alloc = Alloc.create m ~cold:Alloc.Spread in
  Mc_core.create alloc ~buckets ~capacity ~recency

let default_placement sched n =
  let topo = Machine.topology (Sthread.machine sched) in
  let placement = Topology.placement topo ~n in
  fun i -> placement.(i)

let shared sched ~name ~recency ~nclients ~buckets ~capacity =
  let core = shared_core sched ~recency ~buckets ~capacity in
  {
    name;
    attach = (fun _ -> ());
    get = (fun key -> Mc_core.get core key);
    set = (fun ~key ~val_lines -> Mc_core.set core ~key ~val_lines);
    set_tagged = None;
    del = (fun key -> Mc_core.delete core key);
    finish = (fun () -> ());
    populate =
      (fun ~keys ~val_lines -> Array.iter (fun key -> Mc_core.set core ~key ~val_lines) keys);
    client_hw = default_placement sched nclients;
    idle = None;
    version_of = None;
    health = None;
    register_obs = None;
  }

let stock sched ~nclients ~buckets ~capacity =
  shared sched ~name:"stock" ~recency:Mc_core.Lru_list ~nclients ~buckets ~capacity

let parsec sched ~nclients ~buckets ~capacity =
  shared sched ~name:"parsec" ~recency:Mc_core.Clock ~nclients ~buckets ~capacity

let ffwd_mc sched ~nclients ~buckets ~capacity =
  let m = Sthread.machine sched in
  (* server owns socket 0's first hardware thread; clients avoid it *)
  let alloc = Alloc.create m ~cold:(Alloc.Node 0) in
  let core = Mc_core.create alloc ~buckets ~capacity ~recency:Mc_core.Lru_list in
  let f = Dps_ffwd.Ffwd.create sched ~server_hw:[| 0 |] ~clients:nclients in
  let topo = Machine.topology m in
  let placement = Topology.placement topo ~n:(min (Topology.nthreads topo) (nclients + 1)) in
  let nplaced = Array.length placement in
  {
    name = "ffwd";
    attach = (fun c -> Dps_ffwd.Ffwd.attach f ~client:c);
    set_tagged = None;
    get =
      (fun key ->
        Dps_ffwd.Ffwd.call f ~server:0 (fun () -> if Mc_core.get core key then 1 else 0) = 1);
    del =
      (fun key ->
        Dps_ffwd.Ffwd.call f ~server:0 (fun () -> if Mc_core.delete core key then 1 else 0) = 1);
    set =
      (fun ~key ~val_lines ->
        ignore
          (Dps_ffwd.Ffwd.call f ~server:0 (fun () ->
               Mc_core.set core ~key ~val_lines;
               0)));
    finish = (fun () -> Dps_ffwd.Ffwd.client_done f);
    populate =
      (fun ~keys ~val_lines -> Array.iter (fun key -> Mc_core.set core ~key ~val_lines) keys);
    client_hw = (fun i -> placement.(1 + (i mod (nplaced - 1))) (* skip the server's slot *));
    idle = None;
    version_of = None;
    health = None;
    register_obs = None;
  }

let dps_generic sched ~name ~recency ~get_mode ?serving ?(batch = 1) ?(batch_age = 1500)
    ?(versions = 0) ?placement ?on_set_applied ~nclients ~locality_size ~buckets ~capacity () =
  let nparts = (nclients + locality_size - 1) / locality_size in
  let dps =
    Dps.create sched ~nclients ~locality_size ?serving ~batch ~batch_age ~versions ?placement
      ~hash:(fun k -> k)
      ~mk_data:(fun (info : Dps.partition_info) ->
        Mc_core.create info.Dps.alloc
          ~buckets:(max 64 (buckets / nparts))
          ~capacity:(max 1 (capacity / nparts))
          ~recency)
      ()
  in
  let do_set ~key ~val_lines ~tag =
    Dps.execute_async dps ~key (fun core ->
        Mc_core.set core ~key ~val_lines;
        (* version first, hook second: when the exactly-once ledger records
           the apply, every front cache entry for [key] is already stale *)
        Dps.bump_version dps ~key;
        (* the hook fires when the write lands on the partition — under
           delegation that is inside the serving thread, not the issuer *)
        (match on_set_applied with Some f -> f tag | None -> ());
        0)
  in
  {
    name;
    attach = (fun c -> Dps.attach dps ~client:c);
    get =
      (fun key ->
        let op core = if Mc_core.get core key then 1 else 0 in
        (match get_mode with
        | `Delegate -> Dps.call dps ~key op
        | `Local -> Dps.execute_local dps ~key op)
        = 1);
    del =
      (fun key ->
        Dps.call dps ~key (fun core ->
            let found = Mc_core.delete core key in
            if found then Dps.bump_version dps ~key;
            if found then 1 else 0)
        = 1);
    set = (fun ~key ~val_lines -> do_set ~key ~val_lines ~tag:0);
    set_tagged = Some do_set;
    finish =
      (fun () ->
        Dps.client_done dps;
        Dps.drain dps);
    populate =
      (fun ~keys ~val_lines ->
        Array.iter
          (fun key ->
            let core = Dps.partition_data dps (Dps.partition_of_key dps key) in
            Mc_core.set core ~key ~val_lines)
          keys);
    client_hw = (fun i -> Dps.client_hw dps i);
    idle =
      Some
        (fun () ->
          (* flush this poller's own staged delegations before serving:
             an idle event loop must not sit on a partial batch *)
          Dps.flush_pending dps;
          Dps.serve dps ~max:16);
    version_of =
      (if Dps.versioned dps then Some (fun key -> Dps.read_version dps ~key) else None);
    health = Some (fun () -> Dps.health dps);
    register_obs = Some (fun ~labels reg -> Dps.register_obs ~labels dps reg);
  }

let dps_mc sched ?serving ?batch ?batch_age ?versions ?placement ?on_set_applied ~nclients
    ~locality_size ~buckets ~capacity () =
  dps_generic sched ~name:"dps" ~recency:Mc_core.Lru_list ~get_mode:`Delegate ?serving ?batch
    ?batch_age ?versions ?placement ?on_set_applied ~nclients ~locality_size ~buckets ~capacity
    ()

let dps_parsec sched ?serving ?batch ?batch_age ?versions ?placement ?on_set_applied ~nclients
    ~locality_size ~buckets ~capacity () =
  dps_generic sched ~name:"dps-parsec" ~recency:Mc_core.Clock ~get_mode:`Local ?serving ?batch
    ?batch_age ?versions ?placement ?on_set_applied ~nclients ~locality_size ~buckets ~capacity
    ()
