type error_kind =
  | Protocol
  | Parse
  | Schedule
  | Validation
  | Deadline
  | Overload
  | Internal

let error_kind_name = function
  | Protocol -> "protocol"
  | Parse -> "parse"
  | Schedule -> "schedule"
  | Validation -> "validation"
  | Deadline -> "deadline"
  | Overload -> "overload"
  | Internal -> "internal"

type compile_params = {
  loop : string;
  processors : int;
  k : int;
  iterations : int;
  deadline_ms : float option;
  validate : bool option;
}

type request =
  | Compile of { id : Json.t; params : compile_params }
  | Stats of { id : Json.t }
  | Metrics of { id : Json.t }
  | Ping of { id : Json.t }
  | Shutdown of { id : Json.t }

let request_id = function
  | Compile { id; _ }
  | Stats { id }
  | Metrics { id }
  | Ping { id }
  | Shutdown { id } ->
    id

type tier = Memory_hit | Disk_hit | Computed

let tier_name = function
  | Memory_hit -> "memory"
  | Disk_hit -> "disk"
  | Computed -> "computed"

type compiled = {
  tier : tier;
  makespan : int;
  processors : int;
  pattern : bool;
  folded : bool;
  sequential : int;
  percentage_parallelism : float;
  elapsed_ms : float;
  comm : (int * int) option;
      (* (messages before, after) when the service ran the
         synchronization-minimizing rewrite over the generated programs *)
}

(* ---------------------------------------------------------------- *)
(* Decoding requests (the [reply] type comes after, so that its
   [Error] constructor does not shadow [result]'s in this section)    *)

let get_int obj name ~default =
  match Json.member name obj with
  | None -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let get_bool_opt obj name =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
    match Json.to_bool_opt v with
    | Some b -> Ok (Some b)
    | None -> Error (Printf.sprintf "field %S must be a boolean" name))

let get_float_opt obj name =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "field %S must be a number" name))

let ( let* ) = Result.bind

let compile_of_json id obj =
  match Json.member "loop" obj with
  | None -> Error "compile request needs a \"loop\" field"
  | Some l -> (
    match Json.to_string_opt l with
    | None -> Error "field \"loop\" must be a string"
    | Some loop ->
      let* processors = get_int obj "processors" ~default:2 in
      let* k = get_int obj "k" ~default:2 in
      let* iterations = get_int obj "iterations" ~default:100 in
      let* deadline_ms = get_float_opt obj "deadline_ms" in
      let* validate = get_bool_opt obj "validate" in
      if processors < 1 then Error "field \"processors\" must be >= 1"
      else if k < 0 then Error "field \"k\" must be >= 0"
      else if iterations < 1 then Error "field \"iterations\" must be >= 1"
      else
        Ok
          (Compile
             { id; params = { loop; processors; k; iterations; deadline_ms; validate } }))

let request_of_line line =
  match Json.parse line with
  | exception Json.Parse_error msg -> Error (Json.Null, "bad JSON: " ^ msg)
  | json -> (
    let id = Option.value ~default:Json.Null (Json.member "id" json) in
    match Json.member "op" json with
    | None -> Error (id, "request needs an \"op\" field")
    | Some op -> (
      match Json.to_string_opt op with
      | None -> Error (id, "field \"op\" must be a string")
      | Some "compile" ->
        Result.map_error (fun m -> (id, m)) (compile_of_json id json)
      | Some "stats" -> Ok (Stats { id })
      | Some "metrics" -> Ok (Metrics { id })
      | Some "ping" -> Ok (Ping { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some other -> Error (id, Printf.sprintf "unknown op %S" other)))

(* ---------------------------------------------------------------- *)
(* Encoding replies                                                   *)

type reply =
  | Compiled of { id : Json.t; result : compiled }
  | Stats_reply of { id : Json.t; stats : Json.t }
  | Metrics_reply of { id : Json.t; text : string }
  | Pong of { id : Json.t }
  | Bye of { id : Json.t }
  | Error of { id : Json.t; kind : error_kind; message : string }

let reply_json = function
  | Compiled { id; result = r } ->
    Json.Obj
      ([
         ("id", id);
         ("ok", Json.Bool true);
         ("tier", Json.String (tier_name r.tier));
         ("makespan", Json.Int r.makespan);
         ("processors", Json.Int r.processors);
         ("pattern", Json.Bool r.pattern);
         ("folded", Json.Bool r.folded);
         ("sequential", Json.Int r.sequential);
         ("percentage_parallelism", Json.Float r.percentage_parallelism);
         ("elapsed_ms", Json.Float r.elapsed_ms);
       ]
      @
      match r.comm with
      | None -> []
      | Some (before, after) ->
        [ ("messages", Json.Int before); ("messages_opt", Json.Int after) ])
  | Stats_reply { id; stats } ->
    Json.Obj [ ("id", id); ("ok", Json.Bool true); ("stats", stats) ]
  | Metrics_reply { id; text } ->
    Json.Obj [ ("id", id); ("ok", Json.Bool true); ("metrics", Json.String text) ]
  | Pong { id } ->
    Json.Obj [ ("id", id); ("ok", Json.Bool true); ("pong", Json.Bool true) ]
  | Bye { id } ->
    Json.Obj [ ("id", id); ("ok", Json.Bool true); ("bye", Json.Bool true) ]
  | Error { id; kind; message } ->
    Json.Obj
      [
        ("id", id);
        ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            [
              ("kind", Json.String (error_kind_name kind));
              ("message", Json.String message);
            ] );
      ]

let reply_to_line r = Json.to_string (reply_json r)
