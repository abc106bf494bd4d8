type request =
  | Get of string list
  | Set of { key : string; flags : int; exptime : int; data : string; noreply : bool }
  | Delete of { key : string; noreply : bool }

type value = { vkey : string; vflags : int; vdata : string }

type response =
  | Values of value list
  | Stored
  | Not_stored
  | Deleted
  | Not_found
  | Error
  | Client_error of string
  | Server_error of string

let crlf = "\r\n"

(* Decimal append without the Printf machinery: the encoders run once per
   request per wire send and once per response per service round, so the
   format-interpretation and intermediate-string cost of [sprintf] was the
   bulk of the encode path. Digits go most-significant first. *)
let rec add_uint b n =
  if n >= 10 then add_uint b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n) (* cold: never on the hot path *)
  else add_uint b n

let encode_request b = function
  | Get keys ->
      if keys = [] then invalid_arg "Wire.encode_request: get with no keys";
      Buffer.add_string b "get";
      List.iter
        (fun k ->
          Buffer.add_char b ' ';
          Buffer.add_string b k)
        keys;
      Buffer.add_string b crlf
  | Set { key; flags; exptime; data; noreply } ->
      Buffer.add_string b "set ";
      Buffer.add_string b key;
      Buffer.add_char b ' ';
      add_int b flags;
      Buffer.add_char b ' ';
      add_int b exptime;
      Buffer.add_char b ' ';
      add_int b (String.length data);
      if noreply then Buffer.add_string b " noreply";
      Buffer.add_string b crlf;
      Buffer.add_string b data;
      Buffer.add_string b crlf
  | Delete { key; noreply } ->
      Buffer.add_string b "delete ";
      Buffer.add_string b key;
      if noreply then Buffer.add_string b " noreply";
      Buffer.add_string b crlf

let encode_response b = function
  | Values vs ->
      List.iter
        (fun { vkey; vflags; vdata } ->
          Buffer.add_string b "VALUE ";
          Buffer.add_string b vkey;
          Buffer.add_char b ' ';
          add_int b vflags;
          Buffer.add_char b ' ';
          add_int b (String.length vdata);
          Buffer.add_string b crlf;
          Buffer.add_string b vdata;
          Buffer.add_string b crlf)
        vs;
      Buffer.add_string b "END\r\n"
  | Stored -> Buffer.add_string b "STORED\r\n"
  | Not_stored -> Buffer.add_string b "NOT_STORED\r\n"
  | Deleted -> Buffer.add_string b "DELETED\r\n"
  | Not_found -> Buffer.add_string b "NOT_FOUND\r\n"
  | Error -> Buffer.add_string b "ERROR\r\n"
  | Client_error m ->
      Buffer.add_string b "CLIENT_ERROR ";
      Buffer.add_string b m;
      Buffer.add_string b crlf
  | Server_error m ->
      Buffer.add_string b "SERVER_ERROR ";
      Buffer.add_string b m;
      Buffer.add_string b crlf

type 'a parse = Item of 'a | Need_more | Bad of { msg : string; reply : response }

(* A decoder is its byte queue: one block per connection end. An
   announced-but-rejected data block (oversized set payload) is burnt off
   by the queue's skip count, so the payload the client still transmits is
   never parsed as commands. *)
type decoder = Byteq.t

let max_line = 8192
let decoder = Byteq.create
let feed = Byteq.push
let feed_from d q ~max = Byteq.move q ~into:d ~max
let buffered = Byteq.length

(* A protocol line starting at [pos]: [`Line (content, end_pos)] with
   [end_pos] just past the CRLF, [`Need_more] if the CRLF has not arrived,
   [`Too_long] if [max_line] bytes arrived without one. *)
let read_line d ~pos =
  let len = Byteq.length d in
  let limit = Int.min len (pos + max_line + 2) in
  let rec scan i =
    if i + 1 >= limit then if len - pos > max_line then `Too_long else `Need_more
    else if Byteq.get d i = '\r' && Byteq.get d (i + 1) = '\n' then
      `Line (Byteq.sub d ~pos ~len:(i - pos), i + 2)
    else scan (i + 1)
  in
  scan pos

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let max_data_len = 1 lsl 20

let data_len_of s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= max_data_len -> Some n
  | _ -> None

(* Drop everything we have buffered — used for over-long garbage lines
   whose frame boundary cannot be found. *)
let drop_all d msg =
  Byteq.clear d;
  Bad { msg; reply = Client_error msg }

(* A data block of [n] bytes expected at [pos], CRLF-terminated:
   [`Data (bytes, end_pos)], [`Need_more], or [`Bad_term end_pos]. *)
let read_data d ~pos ~n =
  if Byteq.length d < pos + n + 2 then `Need_more
  else if Byteq.get d (pos + n) = '\r' && Byteq.get d (pos + n + 1) = '\n' then
    `Data (Byteq.sub d ~pos ~len:n, pos + n + 2)
  else `Bad_term (pos + n + 2)

let next_request d =
  match read_line d ~pos:0 with
  | `Need_more -> Need_more
  | `Too_long -> drop_all d "line too long"
  | `Line (line, e) -> (
      let bad msg =
        Byteq.drop d e;
        Bad { msg; reply = Client_error msg }
      in
      match tokens line with
      | "get" :: (_ :: _ as keys) ->
          Byteq.drop d e;
          Item (Get keys)
      | [ "get" ] -> bad "get: missing keys"
      | "set" :: key :: flags :: exptime :: bytes :: rest -> (
          let noreply =
            match rest with [] -> Some false | [ "noreply" ] -> Some true | _ -> None
          in
          match
            (int_of_string_opt flags, int_of_string_opt exptime, int_of_string_opt bytes,
             noreply)
          with
          | Some _, Some _, Some n, Some _ when n > max_data_len ->
              (* The client announced a payload we refuse to buffer.  Answer
                 now, and resynchronize by skipping the n+2 bytes (data +
                 CRLF) it will transmit anyway, so the stream stays framed. *)
              Byteq.drop d e;
              Byteq.skip d (n + 2);
              Bad
                {
                  msg = "set: object too large";
                  reply = Server_error "object too large for cache";
                }
          | Some flags, Some exptime, Some n, Some noreply when n >= 0 -> (
              match read_data d ~pos:e ~n with
              | `Need_more -> Need_more
              | `Bad_term e' ->
                  Byteq.drop d e';
                  let msg = "set: data block not CRLF-terminated" in
                  Bad { msg; reply = Client_error msg }
              | `Data (data, e') ->
                  Byteq.drop d e';
                  Item (Set { key; flags; exptime; data; noreply }))
          | _ -> bad "set: bad argument")
      | "set" :: _ -> bad "set: wrong number of arguments"
      | [ "delete"; key ] ->
          Byteq.drop d e;
          Item (Delete { key; noreply = false })
      | [ "delete"; key; "noreply" ] ->
          Byteq.drop d e;
          Item (Delete { key; noreply = true })
      | "delete" :: _ -> bad "delete: wrong number of arguments"
      | [] -> bad "empty command line"
      | verb :: _ ->
          Byteq.drop d e;
          Bad { msg = Printf.sprintf "unknown command %S" verb; reply = Error })

(* "CLIENT_ERROR <msg>" -> "<msg>" (both verbs are 12 characters) *)
let error_message line =
  if String.length line > 13 then String.sub line 13 (String.length line - 13) |> String.trim
  else ""

let next_response d =
  (* Scan a whole END-framed values reply (or a one-line status) before
     consuming anything, so a truncated reply is [Need_more], never [Bad]. *)
  let rec values acc pos =
    match read_line d ~pos with
    | `Need_more -> Need_more
    | `Too_long -> drop_all d "line too long"
    | `Line (line, e) -> (
        let bad msg =
          Byteq.drop d e;
          Bad { msg; reply = Client_error msg }
        in
        match tokens line with
        | [ "END" ] ->
            Byteq.drop d e;
            Item (Values (List.rev acc))
        | [ "VALUE"; vkey; vflags; bytes ] -> (
            match (int_of_string_opt vflags, data_len_of bytes) with
            | Some vflags, Some n -> (
                match read_data d ~pos:e ~n with
                | `Need_more -> Need_more
                | `Bad_term e' ->
                    Byteq.drop d e';
                    let msg = "VALUE: data block not CRLF-terminated" in
                    Bad { msg; reply = Client_error msg }
                | `Data (vdata, e') -> values ({ vkey; vflags; vdata } :: acc) e')
            | _ -> bad "VALUE: bad argument")
        | _ when acc <> [] -> bad "values reply: expected VALUE or END"
        | _ -> status line e)
  and status line e =
    let bad msg =
      Byteq.drop d e;
      Bad { msg; reply = Client_error msg }
    in
    let item r =
      Byteq.drop d e;
      Item r
    in
    match tokens line with
    | [ "STORED" ] -> item Stored
    | [ "NOT_STORED" ] -> item Not_stored
    | [ "DELETED" ] -> item Deleted
    | [ "NOT_FOUND" ] -> item Not_found
    | [ "ERROR" ] -> item Error
    | "CLIENT_ERROR" :: _ -> item (Client_error (error_message line))
    | "SERVER_ERROR" :: _ -> item (Server_error (error_message line))
    | [] -> bad "empty response line"
    | verb :: _ -> bad (Printf.sprintf "unknown response %S" verb)
  in
  values [] 0
