(* Length-prefixed frames over a file descriptor: marshal frames for
   the control channels and the handshake, binary link frames (at the
   end of this file) for the mesh links.

   Marshal frame layout:  "MDW1" | u32 big-endian payload length | payload
   where the payload is [Marshal.to_string v []].

   The magic makes a desynchronised stream (or a non-frame writer on
   the same fd) fail as [Bad_magic] instead of a wild allocation from
   interpreting garbage as a length; the length bound rejects frames
   that would allocate absurdly before a single payload byte is read. *)

let magic = "MDW1"
let header_len = 8
let default_max_frame = 1 lsl 26 (* 64 MiB *)

type error =
  | Closed
  | Bad_magic
  | Oversized of int
  | Truncated
  | Decode_failure
  | Unknown_kind of int
  | Length_mismatch of int

let error_to_string = function
  | Closed -> "peer closed the stream"
  | Bad_magic -> "bad frame magic (stream desynchronised or not a wire peer)"
  | Oversized n -> Printf.sprintf "frame length %d exceeds the frame bound" n
  | Truncated -> "stream ended mid-frame"
  | Decode_failure -> "frame payload is not a marshalled value"
  | Unknown_kind k -> Printf.sprintf "link frame kind %d is neither Single nor Pack" k
  | Length_mismatch n -> Printf.sprintf "link frame length %d does not match its kind" n

exception Wire_error of error

let rec write_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)
  end

let write fd v =
  let payload = Marshal.to_string v [] in
  let n = String.length payload in
  let frame = Bytes.create (header_len + n) in
  Bytes.blit_string magic 0 frame 0 4;
  Bytes.set_int32_be frame 4 (Int32.of_int n);
  Bytes.blit_string payload 0 frame header_len n;
  write_all fd frame 0 (header_len + n)

(* Read exactly [len] bytes; [`Eof n] reports how many arrived first. *)
let read_exact fd buf len =
  let rec go off =
    if off >= len then `Ok
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof off
  in
  go 0

let read ?(max_frame = default_max_frame) fd =
  let hdr = Bytes.create header_len in
  match read_exact fd hdr header_len with
  | `Eof 0 -> Error Closed
  | `Eof _ -> Error Truncated
  | `Ok ->
    if Bytes.sub_string hdr 0 4 <> magic then Error Bad_magic
    else
      let len = Int32.to_int (Bytes.get_int32_be hdr 4) in
      if len < 0 || len > max_frame then Error (Oversized len)
      else
        let payload = Bytes.create len in
        (match read_exact fd payload len with
        | `Eof _ -> Error Truncated
        | `Ok -> (
          (* Marshal's own header check catches garbage; any other
             deserialisation explosion must degrade to a structured
             error, never an abort of the supervisor. *)
          try Ok (Marshal.from_bytes payload 0) with _ -> Error Decode_failure))

(* ---------------------------------------------------------------- *)
(* Link frames: the binary value frame of the mesh links.

   "MDL1" | u32 body length | body, where the body is the tag's node
   and iteration as big-endian int64, a kind byte, then for a Single
   the float's IEEE bits (int64) and for a Pack a u32 count and that
   many (node, iter, bits) int64 triples.  Float bits travel as bits,
   so NaN payloads and -0. survive bit for bit. *)

let link_magic = "MDL1"
let kind_single = 0
let kind_pack = 1
let tag_len = 16
let single_body = tag_len + 1 + 8
let pack_body count = tag_len + 1 + 4 + (24 * count)

type frame = (int * int) * Mimd_runtime.Value_run.payload

let frame_size : Mimd_runtime.Value_run.payload -> int = function
  | Single _ -> header_len + single_body
  | Pack entries -> header_len + pack_body (Array.length entries)

let encode buf ~tag:(node, iter) (payload : Mimd_runtime.Value_run.payload) =
  let size = frame_size payload in
  if Bytes.length buf < size then invalid_arg "Wire.encode: buffer too small";
  Bytes.blit_string link_magic 0 buf 0 4;
  Bytes.set_int32_be buf 4 (Int32.of_int (size - header_len));
  Bytes.set_int64_be buf 8 (Int64.of_int node);
  Bytes.set_int64_be buf 16 (Int64.of_int iter);
  (match payload with
  | Single v ->
    Bytes.set_uint8 buf 24 kind_single;
    Bytes.set_int64_be buf 25 (Int64.bits_of_float v)
  | Pack entries ->
    Bytes.set_uint8 buf 24 kind_pack;
    Bytes.set_int32_be buf 25 (Int32.of_int (Array.length entries));
    Array.iteri
      (fun k ((n, i), v) ->
        let off = 29 + (24 * k) in
        Bytes.set_int64_be buf off (Int64.of_int n);
        Bytes.set_int64_be buf (off + 8) (Int64.of_int i);
        Bytes.set_int64_be buf (off + 16) (Int64.bits_of_float v))
      entries);
  size

let get_int buf off = Int64.to_int (Bytes.get_int64_be buf off)
let get_float buf off = Int64.float_of_bits (Bytes.get_int64_be buf off)
let get_u32 buf off = Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFF_FFFF

(* Every check fires as soon as the bytes it needs are present, so a
   corrupt stream fails at its first bad byte rather than after
   waiting for a body it declared. *)
let decode buf ~pos ~len =
  let magic_ok = ref true in
  for k = 0 to min len 4 - 1 do
    if Bytes.get buf (pos + k) <> link_magic.[k] then magic_ok := false
  done;
  if not !magic_ok then Error Bad_magic
  else if len < header_len then Error (if len = 0 then Closed else Truncated)
  else
    let body = get_u32 buf (pos + 4) in
    if body > default_max_frame then Error (Oversized body)
    else if body < tag_len + 1 then Error (Length_mismatch body)
    else if len < header_len + tag_len + 1 then Error Truncated
    else
      let kind = Bytes.get_uint8 buf (pos + 24) in
      if kind <> kind_single && kind <> kind_pack then Error (Unknown_kind kind)
      else if kind = kind_single && body <> single_body then Error (Length_mismatch body)
      else if kind = kind_pack && body < pack_body 0 then Error (Length_mismatch body)
      else if kind = kind_pack && len >= header_len + pack_body 0
              && body <> pack_body (get_u32 buf (pos + 25))
      then Error (Length_mismatch body)
      else if len < header_len + body then Error Truncated
      else
        let tag = (get_int buf (pos + 8), get_int buf (pos + 16)) in
        let payload : Mimd_runtime.Value_run.payload =
          if kind = kind_single then Single (get_float buf (pos + 25))
          else
            Pack
              (Array.init (get_u32 buf (pos + 25)) (fun k ->
                   let off = pos + 29 + (24 * k) in
                   ((get_int buf off, get_int buf (off + 8)), get_float buf (off + 16))))
        in
        Ok (tag, payload)
