(** Sorted singly-linked list under one global MCS lock — the paper's [gl-m]
    baseline. The simplest possible implementation: every operation holds
    the lock for its whole traversal. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Mcs = Dps_sync.Mcs

type node = { key : int; mutable value : int; addr : int; mutable next : node option }

type t = { alloc : Alloc.t; lock : Mcs.t; head : node }

let name = "gl-m"

let create alloc =
  {
    alloc;
    lock = Mcs.create alloc;
    head = { key = min_int; value = 0; addr = Alloc.line alloc; next = None };
  }

(* Walk to the first node with key >= [key]; charges one read per hop. *)
let search t key =
  Sthread.charge_read t.head.addr;
  let rec go pred =
    match pred.next with
    | None -> (pred, None)
    | Some curr ->
        Sthread.charge_read curr.addr;
        if curr.key >= key then (pred, Some curr) else go curr
  in
  go t.head

let insert t ~key ~value =
  Set_intf.check_key key;
  Mcs.acquire t.lock;
  let pred, curr = search t key in
  let result =
    match curr with
    | Some c when c.key = key -> false
    | _ ->
        let n = { key; value; addr = Alloc.line t.alloc; next = curr } in
        Sthread.write n.addr;
        pred.next <- Some n;
        Sthread.write pred.addr;
        true
  in
  Sthread.flush ();
  Mcs.release t.lock;
  result

let remove t key =
  Set_intf.check_key key;
  Mcs.acquire t.lock;
  let pred, curr = search t key in
  let result =
    match curr with
    | Some c when c.key = key ->
        pred.next <- c.next;
        Sthread.write pred.addr;
        true
    | Some _ | None -> false
  in
  Sthread.flush ();
  Mcs.release t.lock;
  result

let lookup t key =
  Set_intf.check_key key;
  Mcs.acquire t.lock;
  let _, curr = search t key in
  let result = match curr with Some c when c.key = key -> Some c.value | Some _ | None -> None in
  Sthread.flush ();
  Mcs.release t.lock;
  result

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.head.next

let check_invariants t =
  let rec go prev = function
    | None -> ()
    | Some n ->
        if n.key <= prev then failwith "ll_coarse: keys not strictly increasing";
        go n.key n.next
  in
  go min_int t.head.next

let populate t keys = Set_intf.descending (insert t) keys
