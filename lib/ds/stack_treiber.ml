(** Treiber's lock-free stack — the classic top-pointer CAS structure. §3.4
    of the paper discusses stacks as data structures with insertion-time
    ordering constraints that DPS supports through broadcast operations
    (see {!Dps_adapters.Stack}); this is the per-partition implementation,
    and also a shared-memory baseline whose single hot top line collapses
    under cross-socket contention. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type node = { value : int; stamp : int; addr : int; next : node option }

type t = { alloc : Alloc.t; top_addr : int; mutable top : node option; mutable pushes : int }

let create alloc = { alloc; top_addr = Alloc.line alloc; top = None; pushes = 0 }

let now_stamp () = if Sthread.in_sim () then Sthread.time () else 0

let rec push t value =
  Sthread.read t.top_addr;
  let seen = t.top in
  let n = { value; stamp = now_stamp (); addr = Alloc.line t.alloc; next = seen } in
  Sthread.write n.addr;
  (* CAS top: compare-and-swing at a single charged atomic *)
  Sthread.rmw t.top_addr;
  if t.top == seen then begin
    t.top <- Some n;
    t.pushes <- t.pushes + 1
  end
  else push t value

let rec pop t =
  Sthread.read t.top_addr;
  match t.top with
  | None -> None
  | Some n ->
      Sthread.charge_read n.addr;
      Sthread.rmw t.top_addr;
      if (match t.top with Some m -> m == n | None -> false) then begin
        t.top <- n.next;
        Some n.value
      end
      else pop t

let peek t =
  Sthread.read t.top_addr;
  match t.top with
  | None -> None
  | Some n ->
      Sthread.charge_read n.addr;
      Sthread.flush ();
      Some n.value

(** Push time of the current top (for the DPS broadcast pop). *)
let peek_stamp t =
  Sthread.read t.top_addr;
  match t.top with
  | None -> None
  | Some n ->
      Sthread.charge_read n.addr;
      Sthread.flush ();
      Some n.stamp

let size t =
  let rec go acc = function None -> acc | Some n -> go (acc + 1) n.next in
  go 0 t.top

let to_list t =
  let rec go acc = function None -> List.rev acc | Some n -> go (n.value :: acc) n.next in
  go [] t.top

let check_invariants t =
  (* the chain must be acyclic and its length finite *)
  let rec go seen = function
    | None -> ()
    | Some n ->
        if List.memq n seen then failwith "stack_treiber: cycle in chain";
        go (n :: seen) n.next
  in
  go [] t.top
