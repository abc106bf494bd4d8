(* One [int ref] per name. Hot paths resolve their names once with
   [counter] and bump the cell directly: hashing the name on every
   increment would cost more than the simulated access being counted. *)
type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

let counter t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let add t name n =
  let r = counter t name in
  r := !r + n

let incr t name = add t name 1
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

(* Zero in place rather than drop the cells: callers holding a cell from
   [counter] keep counting into the table. *)
let reset t = Hashtbl.iter (fun _ r -> r := 0) t

let to_list t =
  Hashtbl.fold (fun k v acc -> if !v = 0 then acc else (k, !v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
