module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type slot = { addr : int; mutable entered_at : int (* -1 = quiescent *) }

type t = {
  alloc : Alloc.t;
  slots : (int, slot) Hashtbl.t;  (* logical thread id -> slot *)
  mutable slot_list : slot list;
}

let create alloc = { alloc; slots = Hashtbl.create 128; slot_list = [] }

let my_slot t =
  let tid = if Sthread.in_sim () then Sthread.self_id () else -1 in
  match Hashtbl.find_opt t.slots tid with
  | Some s -> s
  | None ->
      let s = { addr = Alloc.line t.alloc; entered_at = -1 } in
      Hashtbl.add t.slots tid s;
      t.slot_list <- s :: t.slot_list;
      s

let now () = if Sthread.in_sim () then Sthread.time () else 0

let enter t =
  let s = my_slot t in
  s.entered_at <- now ();
  (* releasing publish: [quiesce]'s poll reads this slot *)
  Sthread.write_release s.addr

let exit t =
  let s = my_slot t in
  s.entered_at <- -1;
  (* releasing publish: the quiescence waiter takes its HB edge from here *)
  Sthread.write_release s.addr

let quiesce t =
  let start = now () in
  List.iter
    (fun s ->
      let b = Dps_sync.Backoff.create ~initial:32 ~cap:4096 () in
      let rec wait () =
        Sthread.read s.addr;
        (* a reader still inside a section it entered before [start] may
           still hold references from before our unlink *)
        if s.entered_at >= 0 && s.entered_at <= start then begin
          Dps_sync.Backoff.once b;
          wait ()
        end
      in
      wait ())
    t.slot_list

let active_readers t =
  List.fold_left (fun acc s -> if s.entered_at >= 0 then acc + 1 else acc) 0 t.slot_list
