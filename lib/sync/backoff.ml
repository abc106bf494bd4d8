type t = { initial : int; cap : int; mutable cur : int }

let create ?(initial = 32) ?(cap = 512) () = { initial; cap; cur = initial }

let once t =
  Dps_sthread.Sthread.work t.cur;
  t.cur <- min t.cap (2 * t.cur)

let reset t = t.cur <- t.initial
