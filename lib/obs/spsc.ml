external header_bytes : unit -> int = "mimd_spsc_header_bytes" [@@noalloc]
external memfd : int -> Unix.file_descr = "mimd_spsc_memfd"
external mmap : Unix.file_descr -> int -> int = "mimd_spsc_map" [@@noalloc]
external munmap : int -> int -> unit = "mimd_spsc_unmap" [@@noalloc]
external write_raw : int -> int -> Bytes.t -> int -> int -> int = "mimd_spsc_write" [@@noalloc]
external read_raw : int -> int -> Bytes.t -> int -> int -> int = "mimd_spsc_read" [@@noalloc]
external park_reader_raw : int -> int = "mimd_spsc_park_reader" [@@noalloc]
external park_writer_raw : int -> int -> int = "mimd_spsc_park_writer" [@@noalloc]
external bell : Unix.file_descr -> unit = "mimd_spsc_bell" [@@noalloc]
external drain : Unix.file_descr -> int = "mimd_spsc_drain" [@@noalloc]

(* Addresses travel as OCaml ints: user-space addresses fit in 62
   bits, and only the stubs ever dereference them. *)
type mapping = {
  fd : Unix.file_descr;
  addr : int;
  bytes : int;
  rings : int;
  stride : int;
  capacity : int;
  mutable live : bool;
}

let header = header_bytes ()

(* Making the rings and mapping inherited ones are one path: a memfd,
   made here unless given, mapped shared.  Zero rings map one ring's
   worth that nothing touches. *)
let map ?fd ~rings ~capacity () =
  if rings < 0 || capacity <= 0 then invalid_arg "Spsc.map";
  let stride = header + capacity in
  let bytes = max 1 rings * stride in
  let fd = match fd with Some fd -> fd | None -> memfd bytes in
  let addr = mmap fd bytes in
  if addr = 0 then begin
    Unix.close fd;
    failwith "Spsc.map: mmap failed"
  end;
  { fd; addr; bytes; rings; stride; capacity; live = true }

let fd m = m.fd

let unmap m =
  if m.live then begin
    m.live <- false;
    munmap m.addr m.bytes;
    Unix.close m.fd
  end

type ring = { at : int; cap : int }

let ring m i =
  if (not m.live) || i < 0 || i >= m.rings then invalid_arg "Spsc.ring";
  { at = m.addr + (i * m.stride); cap = m.capacity }

let check buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Spsc: range"

(* A stub returns (bytes copied lsl 1) lor bell. *)
let copied ~doorbell x =
  if x land 1 = 1 then bell doorbell;
  x lsr 1

let write r ~doorbell buf off len =
  check buf off len;
  copied ~doorbell (write_raw r.at r.cap buf off len)

let read r ~doorbell buf off len =
  check buf off len;
  copied ~doorbell (read_raw r.at r.cap buf off len)

let park_reader r = park_reader_raw r.at
let park_writer r = park_writer_raw r.at r.cap
