module Histogram = Dps_simcore.Histogram

type labels = (string * string) list

module Counter = struct
  type t = { mutable c : int }

  let incr t = t.c <- t.c + 1
  let add t n = t.c <- t.c + n
  let value t = t.c
end

module Gauge = struct
  type t = { mutable g : float }

  let set t v = t.g <- v
end

module Histo = struct
  type t = Histogram.t

  let observe t v = Histogram.add t v
end

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_gauge_fn of (unit -> float)
  | I_histo of Histo.t

type entry = { e_name : string; e_labels : labels; e_help : string; e_inst : instrument }
type t = { mutable entries : entry list }

let create () = { entries = [] }

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~labels ~help name inst =
  let labels = norm_labels labels in
  if
    List.exists (fun e -> e.e_name = name && e.e_labels = labels) t.entries
  then
    invalid_arg
      (Printf.sprintf "Registry: duplicate metric %s{%s}" name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)));
  t.entries <-
    { e_name = name; e_labels = labels; e_help = help; e_inst = inst } :: t.entries

let counter t ?(labels = []) ?(help = "") name =
  let c = { Counter.c = 0 } in
  register t ~labels ~help name (I_counter c);
  c

let gauge t ?(labels = []) ?(help = "") name =
  let g = { Gauge.g = 0.0 } in
  register t ~labels ~help name (I_gauge g);
  g

let gauge_fn t ?(labels = []) ?(help = "") name f =
  register t ~labels ~help name (I_gauge_fn f)

let histo t ?(labels = []) ?(help = "") name =
  let h = Histogram.create () in
  register t ~labels ~help name (I_histo h);
  h

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histo_v of { count : int; mean : float; p50 : int; p99 : int; p999 : int; max : int }

type sample = { name : string; labels : labels; value : value }

let sample_of e =
  let value =
    match e.e_inst with
    | I_counter c -> Counter_v (Counter.value c)
    | I_gauge g -> Gauge_v g.Gauge.g
    | I_gauge_fn f -> Gauge_v (f ())
    | I_histo h ->
        Histo_v
          {
            count = Histogram.count h;
            mean = Histogram.mean h;
            p50 = Histogram.percentile h 0.5;
            p99 = Histogram.percentile h 0.99;
            p999 = Histogram.percentile h 0.999;
            max = Histogram.max_value h;
          }
  in
  { name = e.e_name; labels = e.e_labels; value }

let snapshot t =
  let samples = List.map sample_of t.entries in
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    samples

let pp_labels ppf labels =
  if labels <> [] then
    Fmt.pf ppf "{%a}"
      (Fmt.list ~sep:(Fmt.any ",") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
      labels

let pp ppf t =
  List.iter
    (fun s ->
      match s.value with
      | Counter_v c -> Fmt.pf ppf "%s%a %d@." s.name pp_labels s.labels c
      | Gauge_v g -> Fmt.pf ppf "%s%a %g@." s.name pp_labels s.labels g
      | Histo_v h ->
          Fmt.pf ppf "%s%a count=%d mean=%.1f p50=%d p99=%d p999=%d max=%d@." s.name
            pp_labels s.labels h.count h.mean h.p50 h.p99 h.p999 h.max)
    (snapshot t)
