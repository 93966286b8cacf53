(** The wire protocol of the compile service: newline-delimited JSON.

    Every request and every reply is exactly one JSON object on one
    line.  Requests carry a client-chosen ["id"] (any JSON value;
    defaults to [null]) which the matching reply echoes verbatim, so
    clients may pipeline requests and reconcile out-of-order replies
    — with more than one worker the server makes {e no} ordering
    promise.

    Grammar (one line each):
    {v
      request ::= {"id": J?, "op": "compile", "loop": STRING,
                   "processors": INT?, "k": INT?, "iterations": INT?,
                   "deadline_ms": NUMBER?, "validate": BOOL?}
                | {"id": J?, "op": "stats"}
                | {"id": J?, "op": "metrics"}
                | {"id": J?, "op": "ping"}
                | {"id": J?, "op": "shutdown"}
      reply   ::= {"id": J, "ok": true, "tier": "memory"|"disk"|"computed",
                   "makespan": INT, "processors": INT, "pattern": BOOL,
                   "folded": BOOL, "sequential": INT,
                   "percentage_parallelism": NUMBER, "elapsed_ms": NUMBER,
                   "messages": INT?, "messages_opt": INT?}
                | {"id": J, "ok": true, "stats": {...}}
                | {"id": J, "ok": true, "metrics": STRING}
                | {"id": J, "ok": true, "pong": true}
                | {"id": J, "ok": true, "bye": true}
                | {"id": J, "ok": false,
                   "error": {"kind": STRING, "message": STRING}}
    v}

    A request that cannot be honoured — malformed JSON, unknown op,
    loop-IR that does not parse, a scheduler failure, a validator
    reject, a blown deadline — always produces the [ok: false] shape
    with a machine-readable [kind]; the server never crashes a
    connection over one bad request. *)

type error_kind =
  | Protocol  (** malformed frame: bad JSON, missing/unknown op, bad field type *)
  | Parse  (** the ["loop"] source does not lex/parse *)
  | Schedule  (** the scheduler itself failed (e.g. pattern search exhausted) *)
  | Validation  (** the independent checker rejected the fresh schedule *)
  | Deadline  (** the request's [deadline_ms] elapsed *)
  | Overload
      (** shed by the router, never dispatched: its in-flight bound is
          full (retry later), or it is draining after [shutdown] *)
  | Internal  (** unexpected exception; the message names it *)

val error_kind_name : error_kind -> string

type compile_params = {
  loop : string;  (** loop-IR source *)
  processors : int;  (** Cyclic-core processor budget (default 2) *)
  k : int;  (** estimated communication cost (default 2) *)
  iterations : int;  (** trip count (default 100) *)
  deadline_ms : float option;  (** per-request deadline, from receipt *)
  validate : bool option;  (** [None]: use the server's default *)
}

type request =
  | Compile of { id : Json.t; params : compile_params }
  | Stats of { id : Json.t }
  | Metrics of { id : Json.t }
  | Ping of { id : Json.t }
  | Shutdown of { id : Json.t }

val request_id : request -> Json.t

type tier = Memory_hit | Disk_hit | Computed

val tier_name : tier -> string

type compiled = {
  tier : tier;
  makespan : int;
  processors : int;  (** total, including Flow-in/Flow-out processors *)
  pattern : bool;
  folded : bool;
  sequential : int;  (** one-processor cycles, for the speedup *)
  percentage_parallelism : float;
  elapsed_ms : float;  (** service time of this request *)
  comm : (int * int) option;
      (** (messages before, messages after) when the service ran the
          synchronization-minimizing rewrite ({!Mimd_codegen.Comm_opt})
          over the generated programs; emitted as the ["messages"] /
          ["messages_opt"] reply fields *)
}

type reply =
  | Compiled of { id : Json.t; result : compiled }
  | Stats_reply of { id : Json.t; stats : Json.t }
  | Metrics_reply of { id : Json.t; text : string }
      (** the whole metrics registry, Prometheus text format, as one
          JSON string (["metrics"] field) *)
  | Pong of { id : Json.t }
  | Bye of { id : Json.t }
  | Error of { id : Json.t; kind : error_kind; message : string }

val request_of_line : string -> (request, Json.t * string) result
(** Decode one frame.  On failure the result carries the request id
    when one could still be extracted (so the error reply is
    attributable) and a human-readable reason; the caller wraps it in
    an [Error] reply of kind {!Protocol}. *)

val reply_json : reply -> Json.t
val reply_to_line : reply -> string
(** One line, no trailing newline. *)
