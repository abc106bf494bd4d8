module Sthread = Dps_sthread.Sthread

type t = { addr : int; mutable version : int }

let create alloc = { addr = Dps_sthread.Alloc.line alloc; version = 0 }
let embed ~addr = { addr; version = 0 }

let get_version t =
  (* racy by design: optik locks embed in data lines, so the optimistic
     version read races the holder's field stores; callers re-validate *)
  Sthread.read_racy t.addr;
  t.version

let is_locked v = v land 1 = 1

let try_lock_at t v =
  Sthread.rmw t.addr;
  if t.version = v && not (is_locked v) then begin
    t.version <- v + 1;
    true
  end
  else false

let lock t =
  let b = Backoff.create () in
  let rec loop () =
    let v = get_version t in
    if is_locked v then begin
      Backoff.once b;
      loop ()
    end
    else if not (try_lock_at t v) then begin
      Backoff.once b;
      loop ()
    end
  in
  loop ()

let unlock t =
  assert (is_locked t.version);
  t.version <- t.version + 1;
  Sthread.write_release t.addr
