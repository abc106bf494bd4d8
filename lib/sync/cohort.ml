module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

(* May the current socket keep the global lock and hand off locally? *)
let handoff_budget = 16

type cohort = {
  local_lock : Mcs.t;
  state_addr : int;
  (* Has this socket's cohort been handed the global lock by a peer? *)
  mutable owns_global : bool;
  mutable handoffs : int;  (* consecutive local hand-offs *)
  mutable waiting : int;  (* local threads queued on the cohort *)
}

type t = {
  global : Ticket.t;
  cohorts : cohort array;  (* per socket *)
  topo : Topology.t;
  mutable global_transfers : int;
}

let create alloc m =
  let topo = Machine.topology m in
  let mk_cohort node =
    {
      local_lock = Mcs.create alloc;
      state_addr = Machine.alloc m (Machine.On_node node) ~lines:1;
      owns_global = false;
      handoffs = 0;
      waiting = 0;
    }
  in
  {
    global = Ticket.create alloc;
    cohorts = Array.init topo.Topology.sockets mk_cohort;
    topo;
    global_transfers = 0;
  }

let my_cohort t = t.cohorts.(Topology.socket_of_thread t.topo (Sthread.self_hw ()))

let acquire t =
  let c = my_cohort t in
  (* announce interest so a releasing peer prefers a local hand-off *)
  Sthread.rmw c.state_addr;
  c.waiting <- c.waiting + 1;
  Mcs.acquire c.local_lock;
  Sthread.rmw c.state_addr;
  c.waiting <- c.waiting - 1;
  if not c.owns_global then begin
    Ticket.acquire t.global;
    t.global_transfers <- t.global_transfers + 1;
    c.owns_global <- true;
    c.handoffs <- 0;
    Sthread.write c.state_addr
  end

let release t =
  let c = my_cohort t in
  Sthread.read c.state_addr;
  let keep_local = c.waiting > 0 && c.handoffs < handoff_budget in
  if keep_local then begin
    (* hand the global lock off within the socket: just release the local
       MCS lock; [owns_global] stays set *)
    c.handoffs <- c.handoffs + 1;
    Mcs.release c.local_lock
  end
  else begin
    c.owns_global <- false;
    Sthread.write c.state_addr;
    Ticket.release t.global;
    Mcs.release c.local_lock
  end

let global_handoffs t = t.global_transfers
