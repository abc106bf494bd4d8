(** Memcached ASCII wire protocol: get (multi-key), set, delete.

    The encoder writes the textual protocol exactly as memcached speaks it
    (CRLF line endings, [set] data blocks framed by a byte count). The
    decoder is incremental and truncation-safe: bytes are fed in arbitrary
    chunks (packet boundaries never matter), a frame is consumed only once
    it is complete, and a prefix of a valid stream can only ever produce
    [Item]s followed by [Need_more] — never a spurious [Bad].

    Malformed input (unknown verbs, wrong arity, non-numeric counts,
    over-long lines, data blocks missing their CRLF terminator) yields
    [Bad] carrying the canonical protocol answer — [ERROR] for unknown
    commands, [CLIENT_ERROR] for bad arguments, [SERVER_ERROR object too
    large for cache] for over-limit set payloads — and consumes the
    offending frame, so a server replies and keeps parsing the connection.
    An over-limit set additionally arms a skip counter for the announced
    data block, so the payload the client transmits anyway is discarded
    instead of being misparsed as a cascade of garbage commands. *)

type request =
  | Get of string list  (** one or more keys *)
  | Set of { key : string; flags : int; exptime : int; data : string; noreply : bool }
  | Delete of { key : string; noreply : bool }

type value = { vkey : string; vflags : int; vdata : string }

type response =
  | Values of value list  (** get result: one entry per hit, [END] framed *)
  | Stored
  | Not_stored
  | Deleted
  | Not_found
  | Error  (** unknown command *)
  | Client_error of string
  | Server_error of string

val encode_request : Buffer.t -> request -> unit
val encode_response : Buffer.t -> response -> unit

type 'a parse =
  | Item of 'a
  | Need_more  (** the buffered bytes end mid-frame; feed more *)
  | Bad of { msg : string; reply : response }
      (** malformed frame, consumed; [reply] is the canonical wire answer
          ([Error] / [Client_error] / [Server_error]) and parsing may
          continue from the next frame boundary *)

type decoder

val decoder : unit -> decoder
(** A single protocol line holds at most 8192 bytes; a longer one is
    rejected as [Bad] without waiting for its CRLF. A decoder is one block:
    its byte queue, which also counts the bytes of a rejected data block
    still to be discarded. *)

val feed : decoder -> string -> unit
(** Append raw connection bytes. *)

val feed_from : decoder -> Byteq.t -> max:int -> int
(** [feed_from d q ~max] moves up to [max] bytes from the head of [q] into
    [d], as {!feed} of those bytes would, with no intermediate string.
    Returns the bytes moved. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by a parse. *)

val next_request : decoder -> request parse
val next_response : decoder -> response parse
