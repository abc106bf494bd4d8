(** The common shape of the key/value set structures evaluated in the paper
    (§5.2): linked lists, binary search trees and skip lists all represent a
    set of nodes with unique integer keys and three operations. Keys lie
    strictly between [min_int] and [max_int]: the lists and skip lists
    keep their head and tail sentinels there, and every [insert], [remove]
    and [lookup] raises [Invalid_argument] on either ({!check_key}).

    Every implementation charges its operations against the simulated
    machine when called from a simulated thread and is free (single-threaded)
    otherwise. *)

module type SET = sig
  type t

  val name : string
  (** Short tag matching the paper's legends (e.g. ["lf-m"]). *)

  val create : Dps_sthread.Alloc.t -> t

  val insert : t -> key:int -> value:int -> bool
  (** [true] if the key was absent and has been added. *)

  val remove : t -> int -> bool
  (** [true] if the key was present and has been removed. *)

  val lookup : t -> int -> int option

  val to_list : t -> (int * int) list
  (** Sorted contents; for cold verification only. *)

  val check_invariants : t -> unit
  (** Raise [Failure] on a broken structural invariant; cold use only. *)

  val populate : t -> int array -> unit
  (** Cold population (cold use only): insert every key, valued as itself,
      in the order this structure's shape needs — one of [descending],
      [balanced] or [given] below. Lists take descending order (O(1) at
      the head); trees and skip lists take a balanced order or the given
      (shuffled) order, whose depth matches random insertion. *)
end

(* The key contract's one check, uncharged: every set's [insert], [remove]
   and [lookup] call it first. *)
let check_key key =
  if key = min_int || key = max_int then
    invalid_arg (Printf.sprintf "Set_intf: key %d is a sentinel" key)

(* The population orders, over a structure's own [insert]. *)

let given insert keys = Array.iter (fun key -> ignore (insert ~key ~value:key)) keys

let descending insert keys =
  let sorted = Array.copy keys in
  Array.sort (fun a b -> compare b a) sorted;
  given insert sorted

(* Medians first, so the unbalanced trees come out perfectly balanced. *)
let balanced insert keys =
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let rec go lo hi =
    if lo <= hi then begin
      let mid = (lo + hi) / 2 in
      ignore (insert ~key:sorted.(mid) ~value:sorted.(mid));
      go lo (mid - 1);
      go (mid + 1) hi
    end
  in
  go 0 (Array.length sorted - 1)
