(* The pre-optimization Dijkstra (one boxed record per heap entry,
   polymorphic tuple compare in [less], one record-of-arrays per source),
   kept verbatim as the measured baseline for bench/main.exe --json and the
   equivalence tests: its rows must match [Ron_graph.Dijkstra]'s bit for
   bit. *)

module Graph = Ron_graph.Graph
module Dijkstra = Ron_graph.Dijkstra

module Heap = struct
  type entry = { d : float; fh : int; node : int }

  type t = { mutable a : entry array; mutable len : int }

  let create () = { a = Array.make 64 { d = 0.0; fh = 0; node = 0 }; len = 0 }

  let less x y = x.d < y.d || (x.d = y.d && (x.fh, x.node) < (y.fh, y.node))

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let push h e =
    if h.len = Array.length h.a then begin
      let bigger = Array.make (2 * h.len) e in
      Array.blit h.a 0 bigger 0 h.len;
      h.a <- bigger
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && less h.a.(!i) h.a.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.a.(0) <- h.a.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && less h.a.(l) h.a.(!smallest) then smallest := l;
          if r < h.len && less h.a.(r) h.a.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some top
    end
end

let run g source =
  let n = Graph.size g in
  let dist = Array.make n infinity in
  let first_hop = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(source) <- 0.0;
  Heap.push heap { d = 0.0; fh = -1; node = source };
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some e ->
      if not settled.(e.node) then begin
        settled.(e.node) <- true;
        dist.(e.node) <- e.d;
        first_hop.(e.node) <- e.fh;
        Array.iteri
          (fun k edge ->
            let v = edge.Graph.dst in
            if not settled.(v) then begin
              let nd = e.d +. edge.Graph.weight in
              let nfh = if e.node = source then k else e.fh in
              if nd < dist.(v) || (nd = dist.(v) && nfh < first_hop.(v)) then begin
                dist.(v) <- nd;
                first_hop.(v) <- nfh;
                Heap.push heap { d = nd; fh = nfh; node = v }
              end
            end)
          (Graph.out_edges g e.node)
      end;
      loop ()
  in
  loop ();
  first_hop.(source) <- -1;
  { Dijkstra.source; dist; first_hop }

let all_pairs g = Array.init (Graph.size g) (fun s -> run g s)
