module Sthread = Dps_sthread.Sthread

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable admits : int;
  mutable invals : int;
}

(* Direct-mapped table in structure-of-arrays form. One conceptual entry is
   key + version + presence + frequency counters: four entries per cache
   line for charging purposes. [cand_key]/[cand_freq] are the LFU-lite
   admission filter: a miss key must out-count the resident's hit counter
   (which decays by one per competing miss) before it may evict. *)
type t = {
  keys : int array;  (* empty_key = vacant slot *)
  vers : int array;  (* backend version the cached presence was read under *)
  present : bool array;
  freq : int array;
  cand_key : int array;
  cand_freq : int array;
  base : int;  (* charged base line; the table occupies [nlines] from here *)
  version_of : int -> int;
  st : stats;
}

let empty_key = min_int
let max_freq = 255

let entries t = Array.length t.keys
let lines_for entries = (entries + 3) / 4
let line t s = t.base + (s / 4)

let create ?(entries = 128) ~alloc ~version_of () =
  let n = max 1 entries in
  {
    keys = Array.make n empty_key;
    vers = Array.make n 0;
    present = Array.make n false;
    freq = Array.make n 0;
    cand_key = Array.make n empty_key;
    cand_freq = Array.make n 0;
    base = alloc ~lines:(lines_for n);
    version_of;
    st = { hits = 0; misses = 0; stale = 0; admits = 0; invals = 0 };
  }

let slot t key =
  let h = key * 0x9E3779B1 in
  let h = h lxor (h lsr 15) in
  (h land max_int) mod Array.length t.keys

let install t s ~key ~ver ~present =
  t.keys.(s) <- key;
  t.vers.(s) <- ver;
  t.present.(s) <- present;
  t.freq.(s) <- 1;
  t.cand_key.(s) <- empty_key;
  t.cand_freq.(s) <- 0;
  Sthread.write (line t s)

(* The coherence protocol lives here: the key's backend version is read
   BEFORE the backend fetch, and the entry is installed under that earlier
   version. If a write lands between the version read and the fetch, the
   entry carries a version older than the value it holds — the next lookup
   sees a mismatch and refetches needlessly, which is the safe direction.
   Reading the version after the fetch would allow the opposite: an old
   value installed under a new version, served as fresh forever. *)
let lookup t key ~fetch =
  let s = slot t key in
  Sthread.read (line t s);
  if t.keys.(s) = key then begin
    let v_now = t.version_of key in
    if v_now = t.vers.(s) then begin
      t.st.hits <- t.st.hits + 1;
      if t.freq.(s) < max_freq then begin
        t.freq.(s) <- t.freq.(s) + 1;
        Sthread.write (line t s)
      end;
      t.present.(s)
    end
    else begin
      (* resident but stale: refetch and reinstall under [v_now], which was
         read before the fetch, preserving the invariant above *)
      t.st.stale <- t.st.stale + 1;
      let present = fetch () in
      t.vers.(s) <- v_now;
      t.present.(s) <- present;
      Sthread.write (line t s);
      present
    end
  end
  else begin
    t.st.misses <- t.st.misses + 1;
    let v_before = t.version_of key in
    let present = fetch () in
    if t.keys.(s) = empty_key then begin
      t.st.admits <- t.st.admits + 1;
      install t s ~key ~ver:v_before ~present
    end
    else begin
      (* occupied by another key: LFU-lite admission duel *)
      if t.cand_key.(s) = key then t.cand_freq.(s) <- t.cand_freq.(s) + 1
      else begin
        t.cand_key.(s) <- key;
        t.cand_freq.(s) <- 1
      end;
      if t.freq.(s) > 0 then t.freq.(s) <- t.freq.(s) - 1;
      if t.cand_freq.(s) > t.freq.(s) then begin
        t.st.admits <- t.st.admits + 1;
        install t s ~key ~ver:v_before ~present
      end
      else Sthread.write (line t s)
    end;
    present
  end

let invalidate t key =
  let s = slot t key in
  Sthread.read (line t s);
  if t.keys.(s) = key then begin
    t.keys.(s) <- empty_key;
    t.st.invals <- t.st.invals + 1;
    Sthread.write (line t s)
  end

let stats t = t.st

let add_stats ~into st =
  into.hits <- into.hits + st.hits;
  into.misses <- into.misses + st.misses;
  into.stale <- into.stale + st.stale;
  into.admits <- into.admits + st.admits;
  into.invals <- into.invals + st.invals

let zero_stats () = { hits = 0; misses = 0; stale = 0; admits = 0; invals = 0 }
