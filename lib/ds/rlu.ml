(** Read-Log-Update runtime (Matveev et al., SOSP'15) — simplified to the
    level documented in DESIGN.md, keeping the cost profile the paper's
    comparison rests on: read sections are store-free on shared data (one
    global-clock read plus writes to the thread's own slot line), while
    writers bump the global clock and *block* in [synchronize] until every
    reader that started under the old clock has finished — the "blocked
    quiescence detection in rlu_synchronize" the paper blames for RLU's
    poor update scaling. Object copies are elided: OCaml's GC already makes
    deferred reclamation safe, so unlink-then-quiesce preserves reader
    safety exactly as RLU's log write-back does. *)

module Alloc = Dps_sthread.Alloc
module Sthread = Dps_sthread.Sthread

type slot = { saddr : int; mutable active : bool; mutable local_clock : int }

type t = {
  alloc : Alloc.t;
  gaddr : int;
  mutable gclock : int;
  slots : (int, slot) Hashtbl.t;  (* logical tid -> slot *)
  mutable slot_list : slot list;
}

let create alloc =
  { alloc; gaddr = Alloc.line alloc; gclock = 0; slots = Hashtbl.create 128; slot_list = [] }

let my_slot t =
  let tid = if Sthread.in_sim () then Sthread.self_id () else -1 in
  match Hashtbl.find_opt t.slots tid with
  | Some s -> s
  | None ->
      let s = { saddr = Alloc.line t.alloc; active = false; local_clock = 0 } in
      Hashtbl.add t.slots tid s;
      t.slot_list <- s :: t.slot_list;
      s

let reader_lock t =
  let s = my_slot t in
  Sthread.read t.gaddr;
  s.local_clock <- t.gclock;
  s.active <- true;
  (* releasing publish: [synchronize]'s quiescence poll reads this slot *)
  Sthread.write_release s.saddr

let reader_unlock t =
  let s = my_slot t in
  s.active <- false;
  (* releasing publish: the grace-period waiter takes its HB edge from here *)
  Sthread.write_release s.saddr

(** Writer-side grace period: advance the clock and wait until no reader is
    still running under the old clock. The caller must have ended its own
    read section (see {!writer_end}). *)
let synchronize t =
  Sthread.rmw t.gaddr;
  t.gclock <- t.gclock + 1;
  let target = t.gclock in
  List.iter
    (fun s ->
      let b = Dps_sync.Backoff.create ~initial:32 ~cap:4096 () in
      let rec wait () =
        Sthread.read s.saddr;
        if s.active && s.local_clock < target then begin
          Dps_sync.Backoff.once b;
          wait ()
        end
      in
      wait ())
    t.slot_list

(** End the calling writer's read section *before* quiescing, so two
    concurrent writers never wait on each other's sections. *)
let writer_end_and_synchronize t =
  reader_unlock t;
  synchronize t
