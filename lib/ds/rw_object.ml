(** The microbenchmark object of §5.1: an array of objects, each spanning a
    configurable number of cache lines. An operation reads and writes a
    given number of the object's lines — the knobs behind Figures 7 and 8
    (working-set size and coherence traffic). *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Machine = Dps_machine.Machine

type obj = { base : int; nlines : int }

type t = { objects : obj array; write_lines : int }

(** [create m policy ~objects ~lines ~write_lines] allocates [objects]
    objects of [lines] cache lines each under the given NUMA [policy].
    Operations touch [write_lines] of each object's lines. *)
let create m policy ~objects ~lines ~write_lines =
  assert (objects > 0 && lines > 0 && write_lines >= 0 && write_lines <= lines);
  let mk _ = { base = Machine.alloc m policy ~lines; nlines = lines } in
  { objects = Array.init objects mk; write_lines }

(** Same, but each object homed on the NUMA node chosen by [node_of]. *)
let create_partitioned m ~node_of ~objects ~lines ~write_lines =
  assert (objects > 0 && lines > 0 && write_lines >= 0 && write_lines <= lines);
  let mk i = { base = Machine.alloc m (Machine.On_node (node_of i)) ~lines; nlines = lines } in
  { objects = Array.init objects mk; write_lines }

let nobjects t = Array.length t.objects
let home_hint t i f = f t.objects.(i).base

(** Read-modify-write of object [i]: read then write [write_lines] lines,
    read the rest. *)
let operate t i =
  let o = t.objects.(i) in
  for l = 0 to o.nlines - 1 do
    if l < t.write_lines then begin
      Sthread.read (o.base + l);
      Sthread.write (o.base + l)
    end
    else Sthread.charge_read (o.base + l)
  done;
  Sthread.flush ()

(** Read-modify-write of a random [window] of object [i]'s lines — the
    Table 2 access pattern: a huge resident object of which each operation
    touches a slice. *)
let operate_window t i ~window =
  let o = t.objects.(i) in
  let window = min window o.nlines in
  let start =
    if Sthread.in_sim () then
      let p = Sthread.self_prng () in
      Dps_simcore.Prng.int p (max 1 (o.nlines - window + 1))
    else 0
  in
  for l = start to start + window - 1 do
    if l - start < t.write_lines then begin
      Sthread.read (o.base + l);
      Sthread.write (o.base + l)
    end
    else Sthread.charge_read (o.base + l)
  done;
  Sthread.flush ()

(** Read-only scan of object [i]. *)
let scan t i =
  let o = t.objects.(i) in
  for l = 0 to o.nlines - 1 do
    Sthread.charge_read (o.base + l)
  done;
  Sthread.flush ()
