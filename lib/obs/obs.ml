type arg = A_int of int | A_str of string | A_float of float

type ev =
  | E_b of { tid : int; ts : int; name : string; cat : string; args : (string * arg) list }
  | E_e of { tid : int; ts : int }
  | E_x of {
      tid : int;
      ts : int;
      dur : int;
      name : string;
      cat : string;
      args : (string * arg) list;
    }
  | E_i of { tid : int; ts : int; name : string; cat : string; args : (string * arg) list }
  | E_ab of { id : int; ts : int; name : string; cat : string; args : (string * arg) list }
  | E_an of { id : int; ts : int; name : string; cat : string }
  | E_ae of { id : int; ts : int; name : string; cat : string }
  | E_m of { tid : int; name : string }

type phase = {
  mutable ph_entries : int;
  mutable ph_self_work : int;
  mutable ph_self_mem : int;
  mutable ph_self_stall : int;
  mutable ph_self_bwstall : int;
  mutable ph_self_park : int;
  mutable ph_total : int;
}

let trc_on = ref false
let prf_on = ref false
let events : ev list ref = ref []
let nevents = ref 0
let id_counter = ref 0
let errors : string list ref = ref []
let stacks : (int, string list) Hashtbl.t = Hashtbl.create 64
let phases : (string, phase) Hashtbl.t = Hashtbl.create 32
let parked : (int, int) Hashtbl.t = Hashtbl.create 64
let cores : (int, int) Hashtbl.t = Hashtbl.create 64
let pending_stall = ref 0
let pending_bw_stall = ref 0
let failpoint_drop_span_close = ref false

let on () = !trc_on || !prf_on
let tracing_on () = !trc_on
let profiling_on () = !prf_on

let reset () =
  events := [];
  nevents := 0;
  id_counter := 0;
  errors := [];
  Hashtbl.reset stacks;
  Hashtbl.reset phases;
  Hashtbl.reset parked;
  Hashtbl.reset cores;
  pending_stall := 0;
  pending_bw_stall := 0;
  failpoint_drop_span_close := false

let start ?(tracing = true) ?(profiling = true) () =
  reset ();
  trc_on := tracing;
  prf_on := profiling

let stop () =
  trc_on := false;
  prf_on := false

let emit ev =
  events := ev :: !events;
  incr nevents

let phase_of name =
  match Hashtbl.find_opt phases name with
  | Some p -> p
  | None ->
      let p =
        {
          ph_entries = 0;
          ph_self_work = 0;
          ph_self_mem = 0;
          ph_self_stall = 0;
          ph_self_bwstall = 0;
          ph_self_park = 0;
          ph_total = 0;
        }
      in
      Hashtbl.add phases name p;
      p

let stack_of tid = match Hashtbl.find_opt stacks tid with Some s -> s | None -> []

let span_begin ~tid ~now ?(cat = "dps") ?(args = []) name =
  if on () then begin
    Hashtbl.replace stacks tid (name :: stack_of tid);
    if !prf_on then begin
      let p = phase_of name in
      p.ph_entries <- p.ph_entries + 1
    end;
    if !trc_on then emit (E_b { tid; ts = now; name; cat; args })
  end

let span_end ~tid ~now =
  if on () then begin
    if !failpoint_drop_span_close then failpoint_drop_span_close := false
    else
      match stack_of tid with
      | [] ->
          errors :=
            Printf.sprintf "span_end with no open span (tid %d, t=%d)" tid now :: !errors
      | _ :: rest ->
          Hashtbl.replace stacks tid rest;
          if !trc_on then emit (E_e { tid; ts = now })
  end

let instant ~tid ~now ?(cat = "dps") ?(args = []) name =
  if !trc_on then emit (E_i { tid; ts = now; name; cat; args })

let complete ~tid ~now ~dur ?(cat = "dps") ?(args = []) name =
  if !trc_on then emit (E_x { tid; ts = now; dur; name; cat; args })

let next_id () =
  if !trc_on then begin
    incr id_counter;
    !id_counter
  end
  else 0

let async_begin ~id ~now ?(cat = "dps") ?(args = []) name =
  if !trc_on && id <> 0 then emit (E_ab { id; ts = now; name; cat; args })

let async_step ~id ~now ?(cat = "dps") name =
  if !trc_on && id <> 0 then emit (E_an { id; ts = now; name; cat })

let async_end ~id ~now ?(cat = "dps") name =
  if !trc_on && id <> 0 then emit (E_ae { id; ts = now; name; cat })

let thread_name ~tid name = if !trc_on then emit (E_m { tid; name })
let pseudo_tid ~kind i = 1_000_000 + (kind * 10_000) + i

(* ---- profiler feed ---- *)

let clear_stall () =
  pending_stall := 0;
  pending_bw_stall := 0

let note_stall n = pending_stall := !pending_stall + n

(* Cycles lost to bandwidth queueing (token-bucket debt), kept separate
   from latency stalls so the profiler can say whether a phase is bound
   by how far memory is or by how wide the pipes are. *)
let note_bw_stall n = pending_bw_stall := !pending_bw_stall + n

let attribute ~tid ~cycles add_self =
  let stack = stack_of tid in
  let top = match stack with [] -> "(no span)" | s :: _ -> s in
  add_self (phase_of top);
  (match stack with
  | [] -> (phase_of "(no span)").ph_total <- (phase_of "(no span)").ph_total + cycles
  | _ ->
      List.iter
        (fun name ->
          let p = phase_of name in
          p.ph_total <- p.ph_total + cycles)
        stack)

let charged ~tid ~hw ~cycles ~cls =
  if !prf_on && cycles > 0 then begin
    (match Hashtbl.find_opt cores hw with
    | Some c -> Hashtbl.replace cores hw (c + cycles)
    | None -> Hashtbl.add cores hw cycles);
    let bwstall, stall =
      match cls with
      | `Mem ->
          let b = min !pending_bw_stall cycles in
          let s = min !pending_stall (cycles - b) in
          pending_bw_stall := 0;
          pending_stall := 0;
          (b, s)
      | `Work -> (0, 0)
    in
    attribute ~tid ~cycles (fun p ->
        match cls with
        | `Work -> p.ph_self_work <- p.ph_self_work + cycles
        | `Mem ->
            p.ph_self_mem <- p.ph_self_mem + (cycles - stall - bwstall);
            p.ph_self_stall <- p.ph_self_stall + stall;
            p.ph_self_bwstall <- p.ph_self_bwstall + bwstall)
  end

let park_begin ~tid ~now = if !prf_on then Hashtbl.replace parked tid now

let park_end ~tid ~now =
  if !prf_on then
    match Hashtbl.find_opt parked tid with
    | None -> ()
    | Some t0 ->
        Hashtbl.remove parked tid;
        let dur = now - t0 in
        if dur > 0 then
          attribute ~tid ~cycles:dur (fun p -> p.ph_self_park <- p.ph_self_park + dur)

(* ---- inspection and export ---- *)

let event_count () = !nevents

let validate () =
  if !errors <> [] then Error (List.hd (List.rev !errors))
  else begin
    let open_span = ref None in
    Hashtbl.iter
      (fun tid stack ->
        match stack with
        | [] -> ()
        | name :: _ -> if !open_span = None then open_span := Some (tid, name))
      stacks;
    match !open_span with
    | Some (tid, name) ->
        Error (Printf.sprintf "span %S left open on tid %d" name tid)
    | None ->
        (* per-thread timestamp monotonicity over sync/instant events *)
        let last : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let bad = ref None in
        let check tid ts =
          (match Hashtbl.find_opt last tid with
          | Some t when ts < t && !bad = None ->
              bad := Some (Printf.sprintf "timestamps not monotone on tid %d (%d < %d)" tid ts t)
          | _ -> ());
          Hashtbl.replace last tid ts
        in
        List.iter
          (fun ev ->
            match ev with
            | E_b { tid; ts; _ } | E_e { tid; ts } | E_x { tid; ts; _ } | E_i { tid; ts; _ } ->
                check tid ts
            | E_ab _ | E_an _ | E_ae _ | E_m _ -> ())
          (List.rev !events);
        (match !bad with Some msg -> Error msg | None -> Ok ())
  end

(* Chrome timestamps are microseconds of a 2 GHz part *)
let cycles_per_us = 2000.0

let buf_ts b cycles =
  Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int cycles /. cycles_per_us))

let buf_args b args =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.to_string (Json.Str k));
      Buffer.add_char b ':';
      match v with
      | A_int n -> Buffer.add_string b (string_of_int n)
      | A_float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
      | A_str s -> Buffer.add_string b (Json.to_string (Json.Str s)))
    args;
  Buffer.add_char b '}'

let buf_common b ~name ~cat ~ph ~ts ~tid =
  Buffer.add_string b "{\"name\":";
  Buffer.add_string b (Json.to_string (Json.Str name));
  Buffer.add_string b ",\"cat\":\"";
  Buffer.add_string b cat;
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_string b ph;
  Buffer.add_string b "\",\"ts\":";
  buf_ts b ts;
  Buffer.add_string b ",\"pid\":1,\"tid\":";
  Buffer.add_string b (string_of_int tid)

let chrome_json () =
  let b = Buffer.create (256 * (!nevents + 2)) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"dps-sim\"}}";
  List.iter
    (fun ev ->
      Buffer.add_char b ',';
      (match ev with
      | E_b { tid; ts; name; cat; args } ->
          buf_common b ~name ~cat ~ph:"B" ~ts ~tid;
          if args <> [] then begin
            Buffer.add_char b ',';
            buf_args b args
          end
      | E_e { tid; ts } ->
          Buffer.add_string b "{\"ph\":\"E\",\"ts\":";
          buf_ts b ts;
          Buffer.add_string b ",\"pid\":1,\"tid\":";
          Buffer.add_string b (string_of_int tid)
      | E_x { tid; ts; dur; name; cat; args } ->
          buf_common b ~name ~cat ~ph:"X" ~ts ~tid;
          Buffer.add_string b ",\"dur\":";
          buf_ts b dur;
          if args <> [] then begin
            Buffer.add_char b ',';
            buf_args b args
          end
      | E_i { tid; ts; name; cat; args } ->
          buf_common b ~name ~cat ~ph:"i" ~ts ~tid;
          Buffer.add_string b ",\"s\":\"t\"";
          if args <> [] then begin
            Buffer.add_char b ',';
            buf_args b args
          end
      | E_ab { id; ts; name; cat; args } ->
          buf_common b ~name ~cat ~ph:"b" ~ts ~tid:0;
          Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" id);
          if args <> [] then begin
            Buffer.add_char b ',';
            buf_args b args
          end
      | E_an { id; ts; name; cat } ->
          buf_common b ~name ~cat ~ph:"n" ~ts ~tid:0;
          Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" id)
      | E_ae { id; ts; name; cat } ->
          buf_common b ~name ~cat ~ph:"e" ~ts ~tid:0;
          Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" id)
      | E_m { tid; name } ->
          Buffer.add_string b "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
          Buffer.add_string b (string_of_int tid);
          Buffer.add_string b ",\"args\":{\"name\":";
          Buffer.add_string b (Json.to_string (Json.Str name));
          Buffer.add_char b '}');
      Buffer.add_char b '}')
    (List.rev !events);
  Buffer.add_string b "]}";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  output_string oc (chrome_json ());
  close_out oc

let trace_path_from_env () = Sys.getenv_opt "DPS_TRACE"

type prof_row = {
  phase : string;
  entries : int;
  self_work : int;
  self_mem : int;
  self_stall : int;
  self_bwstall : int;
  self_park : int;
  total : int;
}

let profile () =
  let rows =
    Hashtbl.fold
      (fun name p acc ->
        {
          phase = name;
          entries = p.ph_entries;
          self_work = p.ph_self_work;
          self_mem = p.ph_self_mem;
          self_stall = p.ph_self_stall;
          self_bwstall = p.ph_self_bwstall;
          self_park = p.ph_self_park;
          total = p.ph_total + p.ph_self_park;
        }
        :: acc)
      phases []
  in
  List.sort
    (fun a b ->
      match compare b.total a.total with 0 -> String.compare a.phase b.phase | c -> c)
    rows

let pp_profile ppf () =
  Fmt.pf ppf "%-16s %9s %12s %12s %12s %12s %12s %12s@." "phase" "entries" "total" "work"
    "mem" "stall" "bwstall" "park";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s %9d %12d %12d %12d %12d %12d %12d@." r.phase r.entries r.total
        r.self_work r.self_mem r.self_stall r.self_bwstall r.self_park)
    (profile ())

let core_cycles () =
  Hashtbl.fold (fun hw c acc -> (hw, c) :: acc) cores []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
