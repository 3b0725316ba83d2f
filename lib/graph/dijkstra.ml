module Pool = Ron_util.Pool
module Probe = Ron_obs.Probe
module Profile = Ron_obs.Profile

type sssp = { source : int; dist : float array; first_hop : int array }

type apsp = { ap_n : int; ap_dist : floatarray; ap_fh : int array }

(* ------------------------------------------------------------------------ *)
(* The one search core, behind full rows, all-pairs, the oracle and
   radius-bounded balls.

   The heap holds no records: entry [i] is a float priority in [heap_d.(i)]
   and an int key in [heap_x.(i)] packing [(first_hop + 1) << k | node],
   where [2^k] is the first power of two with [n <= 2^k]. Since
   [node < 2^k], integer order on the packed key is exactly the
   lexicographic order on [(first_hop, node)], so

     d_i < d_j  ||  (d_i = d_j && x_i < x_j)

   reproduces the reference comparator with two monomorphic compares and no
   allocation. Distinct live entries never compare equal (a push requires a
   strict [(d, fh)] improvement over the recorded tentative), so the pop
   sequence — and therefore every output bit — is independent of the heap's
   internal layout and identical to the reference implementation's.

   All per-run state lives in one scratch record per domain (via DLS),
   reused across runs and reset by generation stamp rather than by fill:
   [mark.(v) = gen] means [v] holds a tentative label from this run,
   [gen + 1] that it is settled, anything older that this run has not
   touched it. A run costs what it explores — O(ball), not O(n), for a
   bounded one — and logs the settled ids in pop order, which is all a
   reader needs. *)

type scratch = {
  mutable cap : int; (* node capacity the buffers are sized for *)
  mutable dist : float array;
  mutable fh : int array;
  mutable mark : int array;
  mutable gen : int;
  mutable order : int array; (* settled ids, pop order *)
  mutable settled : int;
  mutable heap_d : float array;
  mutable heap_x : int array;
  mutable heap_len : int;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        dist = [||];
        fh = [||];
        mark = [||];
        gen = 0;
        order = [||];
        settled = 0;
        (* The heap grows on demand and is never shrunk: a domain that only
           explores small balls keeps a small one. *)
        heap_d = Array.make 256 0.0;
        heap_x = Array.make 256 0;
        heap_len = 0;
      })

let scratch_for n =
  let sc = Domain.DLS.get scratch_key in
  if sc.cap < n then begin
    sc.cap <- n;
    sc.dist <- Array.make n infinity;
    sc.fh <- Array.make n (-1);
    sc.mark <- Array.make n 0;
    sc.gen <- 0;
    sc.order <- Array.make n 0
  end;
  sc

let heap_push sc d x =
  let len = sc.heap_len in
  if len = Array.length sc.heap_d then begin
    let bigger_d = Array.make (2 * len) 0.0 and bigger_x = Array.make (2 * len) 0 in
    Array.blit sc.heap_d 0 bigger_d 0 len;
    Array.blit sc.heap_x 0 bigger_x 0 len;
    sc.heap_d <- bigger_d;
    sc.heap_x <- bigger_x
  end;
  let hd = sc.heap_d and hx = sc.heap_x in
  (* Sift up by hole-movement: no swaps, one final store. *)
  let i = ref len in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pd = Array.unsafe_get hd p in
    if d < pd || (d = pd && x < Array.unsafe_get hx p) then begin
      Array.unsafe_set hd !i pd;
      Array.unsafe_set hx !i (Array.unsafe_get hx p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set hd !i d;
  Array.unsafe_set hx !i x;
  sc.heap_len <- len + 1

(* Remove the minimum; the caller reads it from [sc.heap_d.(0)]/[heap_x.(0)]
   before calling. *)
let heap_drop_min sc =
  let len = sc.heap_len - 1 in
  sc.heap_len <- len;
  if len > 0 then begin
    let hd = sc.heap_d and hx = sc.heap_x in
    let d = Array.unsafe_get hd len and x = Array.unsafe_get hx len in
    (* Sift the former last element down from the root, hole-movement. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let ld = Array.unsafe_get hd l and rd = Array.unsafe_get hd r in
            if rd < ld || (rd = ld && Array.unsafe_get hx r < Array.unsafe_get hx l) then r
            else l
          end
          else l
        in
        let cd = Array.unsafe_get hd c in
        if cd < d || (cd = d && Array.unsafe_get hx c < x) then begin
          Array.unsafe_set hd !i cd;
          Array.unsafe_set hx !i (Array.unsafe_get hx c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set hd !i d;
    Array.unsafe_set hx !i x
  end

(* Settle every node within [radius] of [source] into the domain's scratch
   and return it; [radius = infinity] is a full row.

   The bound is enforced at push time: a tentative distance [nd > radius]
   is never enqueued. With positive weights every prefix of a shortest path
   is strictly shorter, so any node whose true distance is [<= radius] is
   reached entirely through in-radius pushes — the settled set is exactly
   [{ v | dist(v) <= radius }] and every settled distance / first-hop bit
   matches the unbounded run. The heap drains exactly when the ball is
   exhausted: the early exit is structural rather than a popped-distance
   test. The adjacency is the graph's own CSR arrays, shared read-only
   across the pool's domains. *)
let search g source ~radius =
  let n = Graph.size g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if not (radius >= 0.0) then invalid_arg "Dijkstra: radius must be non-negative";
  let off, adj, wts = Graph.csr g in
  let sc = scratch_for n in
  let gen = sc.gen + 2 in
  sc.gen <- gen;
  let fin = gen + 1 in
  let dist = sc.dist and fh = sc.fh and mark = sc.mark and order = sc.order in
  sc.heap_len <- 0;
  sc.settled <- 0;
  (* Packing width: first power of two holding a node id, so unpacking is a
     mask/shift instead of a division. *)
  let shift =
    let k = ref 1 in
    while 1 lsl !k < n do incr k done;
    !k
  in
  let mask = (1 lsl shift) - 1 in
  dist.(source) <- 0.0;
  fh.(source) <- -1;
  mark.(source) <- gen;
  (* fh = -1 packs to 0 lsl shift lor node. *)
  heap_push sc 0.0 source;
  while sc.heap_len > 0 do
    let d = Array.unsafe_get sc.heap_d 0 and x = Array.unsafe_get sc.heap_x 0 in
    heap_drop_min sc;
    let node = x land mask in
    if Array.unsafe_get mark node <> fin then begin
      (* A node's first pop is its last, best push: [dist]/[fh] already
         hold [(d, efh)]. *)
      Array.unsafe_set mark node fin;
      Array.unsafe_set order sc.settled node;
      sc.settled <- sc.settled + 1;
      let efh = (x lsr shift) - 1 in
      let lo = Array.unsafe_get off node in
      let hi = Array.unsafe_get off (node + 1) in
      for e = lo to hi - 1 do
        let v = Array.unsafe_get adj e in
        let mv = Array.unsafe_get mark v in
        if mv <> fin then begin
          let nd = d +. Float.Array.unsafe_get wts e in
          let nfh = if node = source then e - lo else efh in
          (* An untouched node reads as (infinity, -1): any finite [nd] improves it. *)
          if
            nd <= radius
            &&
            if mv = gen then
              nd < Array.unsafe_get dist v
              || (nd = Array.unsafe_get dist v && nfh < Array.unsafe_get fh v)
            else nd < infinity
          then begin
            Array.unsafe_set dist v nd;
            Array.unsafe_set fh v nfh;
            Array.unsafe_set mark v gen;
            heap_push sc nd (((nfh + 1) lsl shift) lor v)
          end
        end
      done
    end
  done;
  if !Probe.on then Probe.sssp_source ();
  sc

(* The full row of the last [search]: unsettled nodes are unreached. *)
let full_row sc n =
  let dist = Array.make n infinity and fh = Array.make n (-1) in
  for i = 0 to sc.settled - 1 do
    let v = Array.unsafe_get sc.order i in
    Array.unsafe_set dist v (Array.unsafe_get sc.dist v);
    Array.unsafe_set fh v (Array.unsafe_get sc.fh v)
  done;
  (dist, fh)

let run g source =
  let dist, first_hop = full_row (search g source ~radius:infinity) (Graph.size g) in
  { source; dist; first_hop }

type bounded = {
  center : int;
  radius : float;
  nodes : int array;  (** settled nodes in pop (increasing-distance) order *)
  dists : float array;
  hops : int array;
}

let run_bounded g source ~radius =
  let sc = search g source ~radius in
  let k = sc.settled in
  let nodes = Array.sub sc.order 0 k in
  let dists = Array.make k 0.0 and hops = Array.make k 0 in
  for i = 0 to k - 1 do
    let v = Array.unsafe_get nodes i in
    Array.unsafe_set dists i (Array.unsafe_get sc.dist v);
    Array.unsafe_set hops i (Array.unsafe_get sc.fh v)
  done;
  { center = source; radius; nodes; dists; hops }

(* [next_toward] over any first-hop lookup: the eager matrix or the oracle. *)
let hop_toward g first_hop u v =
  if v = u then invalid_arg "Dijkstra.next_toward: target is the source";
  let k = first_hop u v in
  if k < 0 then invalid_arg "Dijkstra.next_toward: unreachable target";
  Graph.hop g u k

(* ------------------------------------------------------------------------ *)
(* On-demand distance oracle: cached single-source rows.

   [row t s] returns the full SSSP row from [s], computing it with the same
   [search] as {!all_pairs} (so every bit matches the eager matrix) and
   caching it in a per-domain LRU keyed by source. Per-domain caches need
   no locks, and because rows are pure functions of the graph, the results
   are independent of which domain computes them — [RON_JOBS] changes
   timing, never bits. Memory is bounded by [capacity * 16 bytes * n] per
   domain that actually queries. *)

module Oracle = struct
  type row = { row_dist : float array; row_fh : int array }

  type slot = { srow : row; mutable last : int }

  type cache = { tbl : (int, slot) Hashtbl.t; mutable tick : int }

  type t = {
    ograph : Graph.t;
    on : int;
    ocapacity : int;
    cache_key : cache Domain.DLS.key;
  }

  (* Cap the per-domain cache near 64 MB of rows, floor of two so a
     ping-pong between two sources (the symmetric-dist pattern) still
     hits. [RON_ORACLE_ROWS] overrides. *)
  let default_capacity n =
    match Sys.getenv_opt "RON_ORACLE_ROWS" with
    | Some s when (match int_of_string_opt s with Some k -> k > 0 | None -> false) ->
      int_of_string s
    | _ -> max 2 (min 32 (4_194_304 / max n 1))

  let create ?capacity g =
    let n = Graph.size g in
    let ocapacity =
      match capacity with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Dijkstra.Oracle.create: capacity must be positive"
      | None -> default_capacity n
    in
    {
      ograph = g;
      on = n;
      ocapacity;
      cache_key = Domain.DLS.new_key (fun () -> { tbl = Hashtbl.create 61; tick = 0 });
    }

  let size t = t.on
  let capacity t = t.ocapacity

  let row t s =
    let c = Domain.DLS.get t.cache_key in
    c.tick <- c.tick + 1;
    match Hashtbl.find_opt c.tbl s with
    | Some slot ->
      slot.last <- c.tick;
      if !Probe.on then Probe.oracle_hit ();
      slot.srow
    | None ->
      let row_dist, row_fh = full_row (search t.ograph s ~radius:infinity) t.on in
      let r = { row_dist; row_fh } in
      if Hashtbl.length c.tbl >= t.ocapacity then begin
        (* Evict the least-recently-used row (linear scan: capacity is
           small by construction). *)
        let victim = ref (-1) and oldest = ref max_int in
        Hashtbl.iter
          (fun k slot ->
            if slot.last < !oldest then begin
              oldest := slot.last;
              victim := k
            end)
          c.tbl;
        if !victim >= 0 then begin
          Hashtbl.remove c.tbl !victim;
          if !Probe.on then Probe.oracle_evict ()
        end
      end;
      Hashtbl.add c.tbl s { srow = r; last = c.tick };
      if !Probe.on then begin
        Probe.oracle_build ();
        Probe.oracle_occupancy (Hashtbl.length c.tbl)
      end;
      (* Row builds are the oracle's unit of heavy work — a natural
         telemetry cadence for long on-demand phases. *)
      if !Ron_obs.Telemetry.active then Ron_obs.Telemetry.tick ();
      r

  (* The returned arrays are the cache's own storage: read-only. *)
  let distances t s = (row t s).row_dist
  let first_hops t s = (row t s).row_fh
  let distance t u v = (distances t u).(v)
  let first_hop t u v = (first_hops t u).(v)
  let next_toward t u v = hop_toward t.ograph (first_hop t) u v
end

let all_pairs ?jobs g =
  Profile.phase "dijkstra.all_pairs" @@ fun () ->
  let n = Graph.size g in
  let ap_dist = Float.Array.make (n * n) infinity in
  let ap_fh = Array.make (n * n) (-1) in
  Pool.parallel_for ?jobs n (fun s ->
      let sc = search g s ~radius:infinity in
      let base = s * n in
      for i = 0 to sc.settled - 1 do
        let v = Array.unsafe_get sc.order i in
        Float.Array.unsafe_set ap_dist (base + v) (Array.unsafe_get sc.dist v);
        Array.unsafe_set ap_fh (base + v) (Array.unsafe_get sc.fh v)
      done);
  { ap_n = n; ap_dist; ap_fh }

let size a = a.ap_n
let distance a u v = Float.Array.get a.ap_dist ((u * a.ap_n) + v)
let first_hop a u v = a.ap_fh.((u * a.ap_n) + v)
let next_toward g a u v = hop_toward g (first_hop a) u v
