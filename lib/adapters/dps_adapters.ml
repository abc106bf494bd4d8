module Stack = struct
  module S = Dps_ds.Stack_treiber

  type t = S.t Dps.t

  let push (d : t) v =
    ignore (Dps.call_on d ~pid:(Dps.my_partition d) (fun s -> S.push s v; 0))

  (* Broadcast the peek to every partition (the partition count is tiny),
     then direct the pop at the winner — §3.4's recipe. *)
  let rec pop_attempts d attempts =
    if attempts = 0 then None
    else begin
      let nparts = Dps.npartitions d in
      let winner = ref None in
      for pid = 0 to nparts - 1 do
        let stamp =
          Dps.call_on d ~pid (fun s -> match S.peek_stamp s with Some x -> x | None -> -1)
        in
        match !winner with
        | Some (best_stamp, _) when stamp <= best_stamp -> ()
        | _ -> if stamp >= 0 then winner := Some (stamp, pid)
      done;
      match !winner with
      | None -> None
      | Some (_, pid) -> (
          match Dps.call_on d ~pid (fun s -> match S.pop s with Some v -> v | None -> min_int) with
          | v when v <> min_int -> Some v
          | _ -> pop_attempts d (attempts - 1))
    end

  let pop d = pop_attempts d 3

  let total_size (d : t) =
    let total = ref 0 in
    for pid = 0 to Dps.npartitions d - 1 do
      total := !total + S.size (Dps.partition_data d pid)
    done;
    !total
end

module Queue = struct
  module Q = Dps_ds.Queue_ms

  type t = Q.t Dps.t

  let enqueue (d : t) v =
    ignore (Dps.call_on d ~pid:(Dps.my_partition d) (fun q -> Q.enqueue q v; 0))

  let rec dequeue_attempts d attempts =
    if attempts = 0 then None
    else begin
      let nparts = Dps.npartitions d in
      let winner = ref None in
      for pid = 0 to nparts - 1 do
        let stamp =
          Dps.call_on d ~pid (fun q -> match Q.peek_stamp q with Some x -> x | None -> max_int)
        in
        match !winner with
        | Some (best_stamp, _) when stamp >= best_stamp -> ()
        | _ -> if stamp < max_int then winner := Some (stamp, pid)
      done;
      match !winner with
      | None -> None
      | Some (_, pid) -> (
          match
            Dps.call_on d ~pid (fun q -> match Q.dequeue q with Some v -> v | None -> min_int)
          with
          | v when v <> min_int -> Some v
          | _ -> dequeue_attempts d (attempts - 1))
    end

  let dequeue d = dequeue_attempts d 3

  let total_size (d : t) =
    let total = ref 0 in
    for pid = 0 to Dps.npartitions d - 1 do
      total := !total + Q.size (Dps.partition_data d pid)
    done;
    !total
end

module Pq = struct
  module P = Dps_ds.Pq_shavit

  type t = P.t Dps.t

  let insert (d : t) ~key ~value =
    Dps.call d ~key (fun pq -> if P.insert pq ~key ~value then 1 else 0) = 1

  let find_min (d : t) =
    let best =
      Dps.range d
        (fun pq -> match P.find_min pq with Some (k, _) -> k | None -> max_int)
        ~merge:min
    in
    if best = max_int then None
    else
      (* the key determines its partition, so fetch the value there *)
      Some
        (best, Dps.call d ~key:best (fun pq -> match P.lookup pq best with Some v -> v | None -> 0))

  let rec remove_min_attempts d attempts =
    if attempts = 0 then None
    else begin
      let best =
        Dps.range d
          (fun pq -> match P.find_min pq with Some (k, _) -> k | None -> max_int)
          ~merge:min
      in
      if best = max_int then None
      else begin
        match
          Dps.call d ~key:best (fun pq ->
              match P.remove_min pq with Some (k, _) -> k | None -> min_int)
        with
        | k when k <> min_int -> Some (k, k)
        | _ -> remove_min_attempts d (attempts - 1)
      end
    end

  let remove_min d = remove_min_attempts d 3
end

(* Event-driven integration; interface documented in the .mli. *)
module Events = struct
  type pending_op = { completion : Dps.completion; callback : int -> unit }

  type 'a t = { dps : 'a Dps.t; mutable queue : pending_op list }

  let create dps = { dps; queue = [] }

  let submit t ~key op callback =
    let completion = Dps.execute t.dps ~key op in
    t.queue <- { completion; callback } :: t.queue

  let pending t = List.length t.queue

  let pump t =
    (* push out any staged request batch first: an event loop that only
       pumps occasionally must not leave submissions parked in the
       staging line past their flush age *)
    Dps.flush_pending t.dps;
    let fired = ref 0 in
    let still_pending =
      List.filter
        (fun p ->
          match Dps.try_await t.dps p.completion with
          | Some v ->
              p.callback v;
              incr fired;
              false
          | None -> true)
        t.queue
    in
    t.queue <- still_pending;
    (* serve peers even when nothing completed, so the loop stays a good
       citizen of its locality *)
    if !fired = 0 then ignore (Dps.serve t.dps ~max:4);
    !fired

  let drain_loop t =
    while t.queue <> [] do
      if pump t = 0 then Dps_sthread.Sthread.work 64
    done

end
