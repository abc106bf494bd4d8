(** Michael & Scott's lock-free FIFO queue (the paper cites the x86
    descendant [37]). Two hot lines — head and tail — serialize cross-socket
    traffic; §3.4 positions queues, like stacks, as structures DPS handles
    with broadcast (see {!Dps_adapters.Queue}); this is the per-partition
    implementation and the shared baseline. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type node = { value : int; stamp : int; addr : int; mutable next : node option }

type t = {
  alloc : Alloc.t;
  head_addr : int;
  tail_addr : int;
  mutable head : node;  (* sentinel; head.next is the front *)
  mutable tail : node;
}

let now_stamp () = if Sthread.in_sim () then Sthread.time () else 0

let create alloc =
  let sentinel = { value = 0; stamp = 0; addr = Alloc.line alloc; next = None } in
  {
    alloc;
    head_addr = Alloc.line alloc;
    tail_addr = Alloc.line alloc;
    head = sentinel;
    tail = sentinel;
  }

let rec enqueue t value =
  let n = { value; stamp = now_stamp (); addr = Alloc.line t.alloc; next = None } in
  Sthread.write n.addr;
  Sthread.read t.tail_addr;
  let last = t.tail in
  Sthread.charge_read last.addr;
  match last.next with
  | Some _ ->
      (* tail lagging: help swing it *)
      Sthread.rmw t.tail_addr;
      (match (t.tail == last, last.next) with
      | true, Some nxt -> t.tail <- nxt
      | _, Some _ | _, None -> ());
      enqueue t value
  | None ->
      (* link at the end: CAS on last.next *)
      Sthread.rmw last.addr;
      if last.next = None then begin
        last.next <- Some n;
        (* swing tail (may fail benignly) *)
        Sthread.rmw t.tail_addr;
        if t.tail == last then t.tail <- n
      end
      else enqueue t value

let rec dequeue t =
  Sthread.read t.head_addr;
  let first = t.head in
  Sthread.charge_read first.addr;
  match first.next with
  | None ->
      Sthread.flush ();
      None
  | Some candidate ->
      Sthread.charge_read candidate.addr;
      (* CAS head from first to candidate *)
      Sthread.rmw t.head_addr;
      if t.head == first then begin
        t.head <- candidate;
        (* keep tail ahead of head *)
        if t.tail == first then begin
          Sthread.rmw t.tail_addr;
          if t.tail == first then t.tail <- candidate
        end;
        Some candidate.value
      end
      else dequeue t

let peek t =
  Sthread.read t.head_addr;
  match t.head.next with
  | None -> None
  | Some n ->
      Sthread.charge_read n.addr;
      Sthread.flush ();
      Some n.value

(** Enqueue time of the current front (for the DPS broadcast dequeue). *)
let peek_stamp t =
  Sthread.read t.head_addr;
  match t.head.next with
  | None -> None
  | Some n ->
      Sthread.charge_read n.addr;
      Sthread.flush ();
      Some n.stamp

let size t =
  let rec go acc = function None -> acc | Some n -> go (acc + 1) n.next in
  go 0 t.head.next

let to_list t =
  let rec go acc = function None -> List.rev acc | Some n -> go (n.value :: acc) n.next in
  go [] t.head.next

let check_invariants t =
  let rec go seen n =
    if List.memq n seen then failwith "queue_ms: cycle";
    match n.next with None -> n | Some nxt -> go (n :: seen) nxt
  in
  let last = go [] t.head in
  (* tail must be reachable and the last node must be tail or behind it *)
  ignore last
