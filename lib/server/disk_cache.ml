module Full_sched = Mimd_core.Full_sched

(* Bump when the marshalled payload's meaning changes (any layout
   change in Full_sched.t or the types it contains). *)
let format_version = 5 (* v5: Schedule.t keeps its dense instance table in a Schedule.Index.t *)

(* Marshal is not stable across compiler releases, so the stamp also
   pins the exact OCaml version: a cache written by another compiler
   is silently treated as empty, never deserialised. *)
let stamp () = Printf.sprintf "mimdsched %d %s" format_version Sys.ocaml_version

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable store_errors : int;
}

type stats = { hits : int; misses : int; stores : int; store_errors : int }

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "mimdloop"
  | _ -> (
    match Sys.getenv_opt "HOME" with
    | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "mimdloop"
    | _ -> Filename.concat (Filename.get_temp_dir_name ()) "mimdloop-cache")

let create ~dir = { dir; mutex = Mutex.create (); hits = 0; misses = 0; stores = 0; store_errors = 0 }

let dir t = t.dir

(* Shard by the first two hex digits of the key so one directory never
   holds the whole corpus. *)
let path_of t ~key =
  let shard = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  Filename.concat (Filename.concat t.dir shard) (key ^ ".sched")

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* File layout:
     line 1: "mimdsched <version> <ocaml-version>"
     line 2: MD5 hex digest of the payload
     rest:   Marshal.to_string of the Full_sched.t
   The digest catches truncation and bit rot; the stamp catches format
   drift.  Either problem means "not cached", never an exception. *)

let encode full =
  let payload = Marshal.to_string (full : Full_sched.t) [] in
  Printf.sprintf "%s\n%s\n%s" (stamp ()) (Digest.to_hex (Digest.string payload)) payload

let decode data =
  match String.index_opt data '\n' with
  | None -> None
  | Some i -> (
    if String.sub data 0 i <> stamp () then None
    else
      match String.index_from_opt data (i + 1) '\n' with
      | None -> None
      | Some j ->
        let digest = String.sub data (i + 1) (j - i - 1) in
        let payload = String.sub data (j + 1) (String.length data - j - 1) in
        if Digest.to_hex (Digest.string payload) <> digest then None
        else
          (* The digest matched, so the bytes are exactly what encode
             wrote — but guard the deserialiser anyway: a hostile or
             accidental hash collision must degrade to a recompile,
             not an abort. *)
          (try Some (Marshal.from_string payload 0 : Full_sched.t) with _ -> None))

let find t ~key =
  let path = path_of t ~key in
  let loaded =
    match In_channel.with_open_bin path In_channel.input_all with
    | data -> decode data
    | exception Sys_error _ -> None
  in
  with_lock t (fun () ->
      match loaded with
      | Some _ -> t.hits <- t.hits + 1
      | None -> t.misses <- t.misses + 1);
  loaded

(* Temp names must be unique per {e writer}, not just per key: the
   serve fleet runs many worker processes (distinct pids) over one
   shared cache directory, and each worker runs many pool domains (the
   same pid) — two writers racing on one temp name can interleave
   writes and rename a torn file into place.  pid + a process-local
   counter makes every store's temp name its own. *)
let tmp_seq = Atomic.make 0

let store t ~key full =
  let path = path_of t ~key in
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp.%d.%d.%s" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1)
         (Filename.basename path))
  in
  let ok =
    try
      Mimd_util.Fs.mkdir_p (Filename.dirname path);
      (* Write-then-rename keeps concurrent readers (and crashed
         writers) from ever observing a torn entry. *)
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (encode full));
      Sys.rename tmp path;
      true
    with Sys_error _ | Unix.Unix_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      false
  in
  with_lock t (fun () ->
      if ok then t.stores <- t.stores + 1 else t.store_errors <- t.store_errors + 1)

let stats t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; stores = t.stores; store_errors = t.store_errors })
