module Prng = Dps_simcore.Prng

(* The slot array grows on demand: an LLC box is sized for hundreds of
   thousands of lines, but most simulations touch far fewer, and machines
   are created freely in tests. The machine answers membership from its own
   directory, so [add] does not probe; only [remove] needs the slot of an
   address. The addr -> slot index is therefore built at a box's first
   [remove] (TLB boxes never have one, nor do the LLCs of runs whose lines
   stay on one socket) and maintained from then on. Replacement decisions
   (slot order, PRNG draws) are part of every simulated result and do not
   depend on the index: changing them changes the benchmark numbers.

   The index is one int array, open addressing with linear probing and
   backward-shift deletion (no tombstones). A cell holds
   [addr lsl slot_bits lor slot], or -1 when empty; addresses must be below
   2^(62 - slot_bits), which line and page numbers are. *)
type t = {
  mutable slots : int array;
  mutable index : int array;  (* [||] until the first [remove] *)
  capacity : int;
  mutable size : int;
  prng : Prng.t;
}

let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1
let max_capacity = slot_mask

let create ~capacity prng =
  if capacity < 1 || capacity > max_capacity then
    invalid_arg
      (Printf.sprintf "Cachebox.create: capacity %d outside [1, %d]" capacity max_capacity);
  { slots = Array.make (min capacity 256) (-1); index = [||]; capacity; size = 0; prng }

let capacity t = t.capacity
let size t = t.size

(* Fibonacci multiplicative hash: spreads dense line addresses (allocated
   sequentially from 0) across the index. *)
let home index addr = (addr * 0x9E3779B1) lsr 8 land (Array.length index - 1)

let rec probe index addr i =
  let e = index.(i) in
  if e = -1 || e lsr slot_bits = addr then i
  else probe index addr ((i + 1) land (Array.length index - 1))

(* The cell holding [addr], or the empty cell that ends its probe chain. *)
let cell index addr = probe index addr (home index addr)
let find index addr = index.(cell index addr)
let place index addr slot = index.(cell index addr) <- (addr lsl slot_bits) lor slot

(* Rebuild the index from the slots in one pass, at most half full. *)
let reindex t =
  let cells = ref 8 in
  while !cells < 2 * t.size do
    cells := 2 * !cells
  done;
  let index = Array.make !cells (-1) in
  for s = 0 to t.size - 1 do
    place index t.slots.(s) s
  done;
  t.index <- index

(* Backward-shift deletion: close [hole] by moving a later entry of the
   same probe chain into it. The entry at [j] (home [h]) may fill the hole
   iff walking forward from [h] reaches the hole no later than [j]. *)
let rec shift index hole j =
  let mask = Array.length index - 1 in
  let j = (j + 1) land mask in
  let e = index.(j) in
  if e = -1 then index.(hole) <- -1
  else if (j - home index (e lsr slot_bits)) land mask >= (j - hole) land mask then begin
    index.(hole) <- e;
    shift index j j
  end
  else shift index hole j

let mem t addr =
  if Array.length t.index > 0 then find t.index addr <> -1
  else
    let rec scan s = s < t.size && (t.slots.(s) = addr || scan (s + 1)) in
    scan 0

(* A built index holds exactly one entry per slot, pointing back to it. *)
let index_ok t =
  let entries = Array.fold_left (fun n e -> if e = -1 then n else n + 1) 0 t.index in
  let rec from s =
    s = t.size || (find t.index t.slots.(s) = (t.slots.(s) lsl slot_bits) lor s && from (s + 1))
  in
  Array.length t.index = 0 || (entries = t.size && from 0)

let remove_slot t slot =
  let indexed = Array.length t.index > 0 in
  if indexed then begin
    let hole = cell t.index t.slots.(slot) in
    shift t.index hole hole
  end;
  let last = t.size - 1 in
  if slot <> last then begin
    let moved = t.slots.(last) in
    t.slots.(slot) <- moved;
    if indexed then place t.index moved slot
  end;
  t.slots.(last) <- -1;
  t.size <- last

let remove t addr =
  if Array.length t.index = 0 then reindex t;
  let e = find t.index addr in
  if e <> -1 then remove_slot t (e land slot_mask)

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
  t.size <- t.size + 1;
  if Array.length t.index > 0 then begin
    place t.index addr (t.size - 1);
    (* keep the load under 2/3 so probe chains stay short *)
    if 3 * t.size > 2 * Array.length t.index then reindex t
  end;
  victim
