(* Reader-side of the JSONL trace format: parse lines back into events and
   validate the stream's structural invariants. Shared by ron_cli check
   (the CI validator) and ron_cli report (the span aggregator), and unit
   tested directly — the emitters in Trace and the checks here must agree
   on the schema or the smoke targets break. *)

type ph = B | E | I

type event = {
  ts : int;
  dom : int;
  ph : ph;
  name : string;
  args : (string * Json.t) list;
}

let ph_string = function B -> "B" | E -> "E" | I -> "i"

let parse_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> (
    let int_field k =
      match Json.member k j with
      | Some (Json.Int v) -> Ok v
      | Some _ -> Error (Printf.sprintf "field %S is not an integer" k)
      | None -> Error (Printf.sprintf "missing %S" k)
    in
    match int_field "ts" with
    | Error e -> Error e
    | Ok ts -> (
      match int_field "dom" with
      | Error e -> Error e
      | Ok dom -> (
        match Json.member "name" j with
        | Some (Json.String name) -> (
          let ph =
            match Json.member "ph" j with
            | Some (Json.String "B") -> Ok B
            | Some (Json.String "E") -> Ok E
            | Some (Json.String "i") -> Ok I
            | Some (Json.String other) ->
              Error (Printf.sprintf "unknown phase %S (expected B, E or i)" other)
            | Some _ -> Error "field \"ph\" is not a string"
            | None -> Error "missing \"ph\""
          in
          match ph with
          | Error e -> Error e
          | Ok ph -> (
            match Json.member "args" j with
            | None -> Ok { ts; dom; ph; name; args = [] }
            | Some (Json.Obj args) -> Ok { ts; dom; ph; name; args }
            | Some _ -> Error "field \"args\" is not an object"))
        | Some _ -> Error "field \"name\" is not a string"
        | None -> Error "missing \"name\"")))

(* Structural validation over a whole stream:
   - the ["error"] arg (what [Trace.span] emits when the wrapped function
     raises) may appear only on "E" events and must be a string;
   - per domain, "B"/"E" events balance like brackets: every "E" closes the
     innermost open "B" of the same name (spans are synchronous, so they
     strictly nest within a domain), and no span stays open at the end. *)
let validate events =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let stack dom = Option.value (Hashtbl.find_opt stacks dom) ~default:[] in
  let rec go i = function
    | [] -> (
      match Hashtbl.fold (fun dom st acc -> ((dom, st) :: acc)) stacks [] with
      | [] -> Ok i
      | opens -> (
        match List.find_opt (fun (_, st) -> st <> []) opens with
        | Some (dom, name :: _) ->
          Error (Printf.sprintf "span %S on domain %d is never closed" name dom)
        | _ -> Ok i))
    | e :: rest -> (
      let err fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "event %d: %s" (i + 1) s)) fmt in
      match List.assoc_opt "error" e.args with
      | Some v when e.ph <> E ->
        ignore v;
        err "\"error\" arg on a %S event (only \"E\" may carry one)" (ph_string e.ph)
      | Some (Json.String _) | None -> (
        match e.ph with
        | I -> go (i + 1) rest
        | B ->
          Hashtbl.replace stacks e.dom (e.name :: stack e.dom);
          go (i + 1) rest
        | E -> (
          match stack e.dom with
          | [] -> err "\"E\" %S on domain %d closes no open span" e.name e.dom
          | top :: tl ->
            if String.equal top e.name then begin
              Hashtbl.replace stacks e.dom tl;
              go (i + 1) rest
            end
            else err "\"E\" %S on domain %d does not match open span %S" e.name e.dom top))
      | Some _ -> err "\"error\" arg is not a string")
  in
  go 0 events

let parse_lines lines =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (i + 1) acc rest
      else begin
        match parse_line line with
        | Ok e -> go (i + 1) (e :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" (i + 1) e)
      end
  in
  go 1 [] lines

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec slurp acc =
        match input_line ic with
        | line -> slurp (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      parse_lines (slurp []))

(* -- telemetry snapshot records ----------------------------------------- *)

(* One Telemetry JSONL sample, parsed shallowly: the fixed header fields
   are extracted and typed; the section payloads stay as Json.t so the
   validator below and ron_cli report telemetry can each walk what they need. *)
type snapshot = {
  sts : int;
  seq : int;
  counters : (string * Json.t) list;
  gauges : (string * Json.t) list;
  hists : (string * Json.t) list;
  gc : (string * Json.t) list option;
  rss_kb : int option;
}

let parse_snapshot_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> (
    let int_field k =
      match Json.member k j with
      | Some (Json.Int v) -> Ok v
      | Some _ -> Error (Printf.sprintf "field %S is not an integer" k)
      | None -> Error (Printf.sprintf "missing %S" k)
    in
    let obj_field k =
      match Json.member k j with
      | Some (Json.Obj fields) -> Ok fields
      | Some _ -> Error (Printf.sprintf "field %S is not an object" k)
      | None -> Error (Printf.sprintf "missing %S" k)
    in
    match Json.member "kind" j with
    | Some (Json.String "sample") -> (
      match (int_field "ts", int_field "seq") with
      | Error e, _ | _, Error e -> Error e
      | Ok sts, Ok seq -> (
        match (obj_field "counters", obj_field "gauges", obj_field "hists") with
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
        | Ok counters, Ok gauges, Ok hists -> (
          let gc =
            match Json.member "gc" j with
            | None -> Ok None
            | Some (Json.Obj fields) -> Ok (Some fields)
            | Some _ -> Error "field \"gc\" is not an object"
          in
          let rss =
            match Json.member "rss_kb" j with
            | None -> Ok None
            | Some (Json.Int v) -> Ok (Some v)
            | Some _ -> Error "field \"rss_kb\" is not an integer"
          in
          match (gc, rss) with
          | Error e, _ | _, Error e -> Error e
          | Ok gc, Ok rss_kb -> Ok { sts; seq; counters; gauges; hists; gc; rss_kb })))
    | Some (Json.String other) -> Error (Printf.sprintf "unknown record kind %S" other)
    | Some _ -> Error "field \"kind\" is not a string"
    | None -> Error "missing \"kind\"")

let is_number = function Json.Int _ | Json.Float _ -> true | _ -> false

(* Structural validation of a telemetry series:
   - seq starts at 0 and increases by exactly 1 (one writer, no loss);
   - ts is non-decreasing (clocks are monotone, logical or wall);
   - counter deltas are integers, gauge values numbers;
   - every histogram summary carries integer count >= 1 and numeric
     min/max/p50/p95/p99 (empty histograms are omitted at emission);
   - gc fields are numbers and rss_kb is non-negative when present. *)
let validate_snapshots snaps =
  let err i fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "sample %d: %s" (i + 1) s)) fmt
  in
  let rec go i prev_ts = function
    | [] -> Ok i
    | s :: rest ->
      if s.seq <> i then err i "seq %d, expected %d" s.seq i
      else if s.sts < prev_ts then err i "ts %d goes backwards (previous %d)" s.sts prev_ts
      else if s.rss_kb <> None && Option.get s.rss_kb < 0 then
        err i "negative rss_kb"
      else begin
        let bad_counter =
          List.find_opt (fun (_, v) -> match v with Json.Int _ -> false | _ -> true) s.counters
        in
        let bad_gauge = List.find_opt (fun (_, v) -> not (is_number v)) s.gauges in
        let bad_gc =
          match s.gc with
          | None -> None
          | Some fields -> List.find_opt (fun (_, v) -> not (is_number v)) fields
        in
        let bad_hist =
          List.find_opt
            (fun (_, v) ->
              match v with
              | Json.Obj fields ->
                (match List.assoc_opt "count" fields with
                | Some (Json.Int c) when c >= 1 -> false
                | _ -> true)
                || List.exists
                     (fun k ->
                       match List.assoc_opt k fields with
                       | Some v -> not (is_number v)
                       | None -> true)
                     [ "min"; "max"; "p50"; "p95"; "p99" ]
              | _ -> true)
            s.hists
        in
        match (bad_counter, bad_gauge, bad_gc, bad_hist) with
        | Some (k, _), _, _, _ -> err i "counter %S is not an integer delta" k
        | _, Some (k, _), _, _ -> err i "gauge %S is not a number" k
        | _, _, Some (k, _), _ -> err i "gc field %S is not a number" k
        | _, _, _, Some (k, _) -> err i "histogram %S is not a well-formed summary" k
        | None, None, None, None -> go (i + 1) s.sts rest
      end
  in
  go 0 min_int snaps

let parse_snapshot_lines lines =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (i + 1) acc rest
      else begin
        match parse_snapshot_line line with
        | Ok s -> go (i + 1) (s :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" (i + 1) e)
      end
  in
  go 1 [] lines

let read_snapshot_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec slurp acc =
        match input_line ic with
        | line -> slurp (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      parse_snapshot_lines (slurp []))
