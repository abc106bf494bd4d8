(* Deterministic token bucket for every finite resource, in simulated
   cycles. [tokens] may go negative: a charge that overdraws the bucket is
   admitted immediately but reports the queueing delay until the refill
   stream would have paid the debt back — so back-to-back charges at the
   same instant see monotonically growing delays, which is exactly the
   queueing behaviour of a saturated memory controller or link. Refill is
   computed lazily from the elapsed simulated time (no periodic events),
   capped at [burst].

   Tokens are kept in units of bytes x [per], so a rate of [rate] bytes
   every [per] cycles stays integral: the refill gains [rate] units per
   cycle and a charge of [n] bytes costs [n * per] units. *)

type t = {
  rate : int;  (* bytes refilled every [per] cycles *)
  per : int;
  burst : int;  (* token capacity, bytes *)
  mutable tokens : int;  (* bytes x per *)
  mutable last : int;  (* simulated time of the last refill *)
  mutable bytes : int;  (* cumulative bytes charged *)
  mutable queue_cycles : int;  (* cumulative queueing delay handed out *)
  mutable queue_events : int;  (* charges that hit an empty bucket *)
}

let create ~rate ~per ~burst =
  if rate <= 0 || per <= 0 || burst < 0 then
    invalid_arg "Bwbucket.create: rate and per must be positive, burst non-negative";
  {
    rate;
    per;
    burst;
    tokens = burst * per;
    last = 0;
    bytes = 0;
    queue_cycles = 0;
    queue_events = 0;
  }

let rate t = t.rate
let burst t = t.burst
let tokens t = t.tokens / t.per
let bytes t = t.bytes
let queue_cycles t = t.queue_cycles
let queue_events t = t.queue_events

let refill t ~now =
  if now > t.last then begin
    (* guard the refill product against overflow (huge idle gap x high
       rate) by saturating via division first *)
    let dt = now - t.last in
    let cap = t.burst * t.per in
    let gain = if dt > max_int / t.rate then max_int else dt * t.rate in
    t.tokens <- (if gain >= cap - t.tokens then cap else t.tokens + gain);
    t.last <- now
  end

(* Charge [bytes] at simulated time [now]; returns the queueing delay in
   cycles (0 when the bucket still had tokens). *)
let charge t ~now ~bytes =
  refill t ~now;
  t.tokens <- t.tokens - (bytes * t.per);
  t.bytes <- t.bytes + bytes;
  if t.tokens >= 0 then 0
  else begin
    let d = (-t.tokens + t.rate - 1) / t.rate in
    t.queue_cycles <- t.queue_cycles + d;
    t.queue_events <- t.queue_events + 1;
    d
  end
