module Sthread = Dps_sthread.Sthread

type t = { addr : int; mutable locked : bool; mutable owner : int }

let create alloc = { addr = Dps_sthread.Alloc.line alloc; locked = false; owner = -1 }
let embed ~addr = { addr; locked = false; owner = -1 }

let try_acquire t =
  Sthread.rmw t.addr;
  if t.locked then false
  else begin
    t.locked <- true;
    t.owner <- (if Sthread.in_sim () then Sthread.self_id () else -1);
    true
  end

let acquire t =
  let b = Backoff.create () in
  let rec loop () =
    (* racy by design: spinlocks embed in data lines (lazy lists), so the
       spin read may race the holder's field stores; the rmw re-checks *)
    Sthread.read_racy t.addr;
    if t.locked then begin
      Backoff.once b;
      loop ()
    end
    else if not (try_acquire t) then begin
      Backoff.once b;
      loop ()
    end
  in
  loop ()

let acquire_for t ~budget =
  if not (Sthread.in_sim ()) then try_acquire t
  else begin
    let deadline = Sthread.time () + Int.max 0 budget in
    let b = Backoff.create () in
    let rec loop () =
      if try_acquire t then true
      else if Sthread.time () >= deadline then false
      else begin
        Backoff.once b;
        loop ()
      end
    in
    loop ()
  end

let release t =
  assert t.locked;
  t.locked <- false;
  t.owner <- -1;
  Sthread.write_release t.addr

let held t = t.locked
let owner t = if t.locked then Some t.owner else None

let break_lock t =
  if t.locked then begin
    t.locked <- false;
    t.owner <- -1;
    Sthread.write_release t.addr
  end
