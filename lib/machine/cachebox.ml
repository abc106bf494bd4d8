module Prng = Dps_simcore.Prng
module Itbl = Dps_simcore.Itbl

(* The slot array and index grow on demand: an LLC box is sized for hundreds
   of thousands of lines, but most simulations touch far fewer, and machines
   are created freely in tests. The addr -> slot index is an open-addressing
   int table (Itbl); it finds the slot of an address being removed. The
   machine answers membership from its own directory, so [add] does not
   probe. Replacement decisions (slot order, PRNG draws) are part of every
   simulated result: changing them changes the benchmark numbers. *)
type t = {
  mutable slots : int array;
  index : Itbl.t;  (* addr -> slot *)
  capacity : int;
  mutable size : int;
  prng : Prng.t;
}

let create ~capacity prng =
  assert (capacity > 0);
  let initial = min capacity 256 in
  {
    slots = Array.make initial (-1);
    index = Itbl.create ~capacity:(2 * initial) ();
    capacity;
    size = 0;
    prng;
  }

let capacity t = t.capacity
let size t = t.size
let mem t addr = Itbl.mem t.index addr

let remove_slot t slot =
  let addr = t.slots.(slot) in
  Itbl.remove t.index addr;
  let last = t.size - 1 in
  if slot <> last then begin
    let moved = t.slots.(last) in
    t.slots.(slot) <- moved;
    Itbl.set t.index moved slot
  end;
  t.slots.(last) <- -1;
  t.size <- last

let remove t addr =
  match Itbl.find_opt t.index addr with
  | None -> ()
  | Some slot -> remove_slot t slot

let grow t =
  let bigger = Array.make (min t.capacity (2 * Array.length t.slots)) (-1) in
  Array.blit t.slots 0 bigger 0 t.size;
  t.slots <- bigger

let add t addr =
  let victim =
    if t.size = t.capacity then begin
      let slot = Prng.int t.prng t.size in
      let v = t.slots.(slot) in
      remove_slot t slot;
      Some v
    end
    else begin
      if t.size = Array.length t.slots then grow t;
      None
    end
  in
  t.slots.(t.size) <- addr;
  Itbl.set t.index addr t.size;
  t.size <- t.size + 1;
  victim
