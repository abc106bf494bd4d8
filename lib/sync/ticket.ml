module Sthread = Dps_sthread.Sthread

type t = { addr : int; mutable next : int; mutable owner : int }

let create alloc = { addr = Dps_sthread.Alloc.line alloc; next = 0; owner = 0 }
let embed ~addr = { addr; next = 0; owner = 0 }

let acquire t =
  Sthread.rmw t.addr;
  let my = t.next in
  t.next <- my + 1;
  (* racy by design: ticket locks embed in data lines (e.g. bst-tk nodes),
     so the spin read races with the holder's plain writes to the line.
     Racy reads still acquire, so the read observing owner = my picks up
     the releaser's HB edge. *)
  let b = Backoff.create ~initial:16 ~cap:256 () in
  let rec wait () =
    Sthread.read_racy t.addr;
    if t.owner <> my then begin
      Backoff.once b;
      wait ()
    end
  in
  if t.owner <> my then wait ()

let release t =
  t.owner <- t.owner + 1;
  Sthread.write_release t.addr

let held t = t.owner < t.next
