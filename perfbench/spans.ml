(* In-memory spans around the benchmark's calls into each layer. Every
   [measure] times its body on the monotonic clock; while recording is on
   it also keeps a span (name, start, end, parent) tagged with the run id.
   Spans stay in memory and are written out once, when the run ends. All
   spans are opened and closed on the orchestrating domain. *)

type span = { id : int; parent : int; name : string; start_ns : int; stop_ns : int }

type t = {
  run_id : string;
  mutable on : bool;
  mutable spans : span list;  (* closed spans, newest first *)
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next : int;
}

let create ~run_id = { run_id; on = false; spans = []; stack = []; next = 0 }

(* [measure t name f] is [(f (), elapsed_ns)]. *)
let measure t name f =
  if not t.on then Clock.timed f
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = Clock.now_ns () in
    let close () =
      let stop_ns = Clock.now_ns () in
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
      t.spans <- { id; parent; name; start_ns; stop_ns } :: t.spans;
      stop_ns - start_ns
    in
    match f () with
    | x -> (x, close ())
    | exception e ->
      ignore (close ());
      raise e
  end

let spans t = List.rev t.spans

(* Each span paired with its self time. *)
let with_self t =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.start_ns, s.stop_ns)) t.spans;
  List.map
    (fun s ->
      (s, Arith.self_time ~start:s.start_ns ~stop:s.stop_ns (Hashtbl.find_all children s.id)))
    (spans t)

(* Per-name (count, total ns, self ns), in order of first appearance. *)
let by_name t =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (c, tot, sf) -> Hashtbl.replace tbl s.name (c + 1, tot + (s.stop_ns - s.start_ns), sf + self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name (1, s.stop_ns - s.start_ns, self))
    (with_self t);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let write_jsonl t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
            t.run_id s.id s.parent s.name s.start_ns s.stop_ns self)
        (with_self t))
