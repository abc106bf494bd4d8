(* Consistent-hash ring with virtual nodes.

   Every node contributes [vnodes] (64) points on a 62-bit circle; a key is
   owned by the first point clockwise from its hash. Removing a node
   deletes only its points, so its keys remap onto the next surviving
   points — the failover promotion — while every other key keeps its
   owner. The hash is a fixed splitmix64-style mixer: deterministic, no
   seeds, the same layout on every run. *)

(* splitmix64's multipliers exceed OCaml's 63-bit int literals; wrapping
   them through Int64 keeps the low 63 bits, which is all a mixer needs. *)
let m1 = Int64.to_int 0xbf58476d1ce4e5b9L
let m2 = Int64.to_int 0x94d049bb133111ebL

let mix h =
  (* splitmix64 finalizer, truncated to OCaml's 63-bit int (kept positive) *)
  let h = ref h in
  h := !h lxor (!h lsr 30);
  h := !h * m1;
  h := !h lxor (!h lsr 27);
  h := !h * m2;
  h := !h lxor (!h lsr 31);
  !h land max_int

let point ~node ~replica = mix (((node + 1) * 0x9e3779b9) + (replica * 0x85ebca6b))
let hash_key key = mix (key + 0x165667b1)

let vnodes = 64

type t = {
  mutable live : int list;  (* ascending node ids *)
  mutable points : (int * int) array;  (* (position, node), sorted by position *)
}

let rebuild t =
  let pts =
    List.concat_map
      (fun node -> List.init vnodes (fun r -> (point ~node ~replica:r, node)))
      t.live
  in
  t.points <- Array.of_list pts;
  Array.sort compare t.points

let create ~nnodes =
  if nnodes <= 0 then invalid_arg "Ring.create: nnodes must be positive";
  let t = { live = List.init nnodes Fun.id; points = [||] } in
  rebuild t;
  t

let nodes t = t.live
let size t = List.length t.live
let is_live t node = List.mem node t.live

(* First point at position >= h, wrapping — binary search over the sorted
   point array. *)
let owner_at t h =
  let pts = t.points in
  let n = Array.length pts in
  if n = 0 then invalid_arg "Ring.lookup: empty ring";
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst pts.(mid) < h then lo := mid + 1 else hi := mid
  done;
  snd pts.(if !lo = n then 0 else !lo)

let lookup t key = owner_at t (hash_key key)

(* The node that inherits [node]'s keys if it fails: the owner the ring
   would pick with [node]'s points deleted, probed at [node]'s first
   point. Distinct keys can fail over to distinct successors (that is the
   point of virtual nodes — a dead node's load spreads); this names one
   deterministic representative, used as the retry target before the ring
   has been replayed. *)
let successor t node =
  match List.filter (fun n -> n <> node) t.live with
  | [] -> node
  | [ only ] -> only
  | _ :: _ ->
      (* walk clockwise through the point array from node's first point;
         with at least two live nodes a foreign point exists *)
      let h = point ~node ~replica:0 in
      let pts = t.points in
      let n = Array.length pts in
      let start = ref 0 in
      while !start < n && fst pts.(!start) < h do incr start done;
      let rec scan i left =
        if left = 0 then node
        else
          let _, o = pts.(i mod n) in
          if o <> node then o else scan (i + 1) (left - 1)
      in
      scan !start n

let remove t node =
  if List.mem node t.live then begin
    t.live <- List.filter (fun n -> n <> node) t.live;
    if t.live = [] then invalid_arg "Ring.remove: removing the last node";
    rebuild t
  end

let add t node =
  if node < 0 then invalid_arg "Ring.add: negative node id";
  if not (List.mem node t.live) then begin
    t.live <- List.sort compare (node :: t.live);
    rebuild t
  end
