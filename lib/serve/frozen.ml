(* What every frozen scheme shares: flat section reads, the per-domain
   scratch, the packing helpers the [freeze] functions use, the row type
   of [Server]'s scheme table, and the one Brent route loop.

   The hot path allocates nothing in steady state. The discipline, for the
   non-flambda middle end: every loop is a top-level tail-recursive
   function over ints (inner [let rec]s with free variables allocate a
   closure per call), no hot function takes or returns a float (both are
   boxed across non-inlined calls — float flow goes through the scratch
   [fbuf] float array, whose reads and writes are unboxed), results land
   in caller-owned scratch registers, and every per-scheme closure is
   built once when an image is opened. Verified by the [Gc.quick_stat]
   minor-words audit in the bench. *)

module A1 = Bigarray.Array1

type ints = Image.ints
type floats = Image.floats

(* Primitives, not functions: every scheme module reads sections through
   them, and a primitive is specialized (unboxed) at each use site with or
   without cross-module inlining. *)
external ig : ints -> int -> int = "%caml_ba_unsafe_ref_1"
external fg : floats -> int -> float = "%caml_ba_unsafe_ref_1"

(* Route outcome codes: [Scheme.outcome]'s, in declaration order, then
   [code_error] for a walk the image cannot finish — sections whose values
   are in range but do not fit together. *)
let code_delivered = 0
let code_truncated = 1
let code_self_forward = 2
let code_cycled = 3
let code_error = 5

let outcome_code = function
  | Ron_routing.Scheme.Delivered -> code_delivered
  | Truncated -> code_truncated
  | Self_forward -> code_self_forward
  | Cycled -> code_cycled
  | Dropped -> 4

(* ------------------------------------------------------- per-domain scratch *)

(* All per-query mutable state. Float accumulators live in [fbuf];
   everything else is ints. Grown only by [ensure] to a scheme's bounds, so
   steady-state queries never allocate.

   fbuf slots: 0 dls min / meridian d; 1 dls best_dv / meridian best_d;
   2 route length; 3 lo; 4 hi; 5 neighbor-selection best_d; 6 score
   result; 7 switch-scale threshold. *)
type scratch = {
  mutable m : int array; (* decoded zooming sequence (Basic) *)
  mutable right_gen : int array; (* DLS join: generation stamp per virtual *)
  mutable right_val : int array;
  mutable gen : int;
  mutable memo_d : float array; (* Labelled per-route score memo *)
  mutable memo_gen : int array;
  mutable mgen : int;
  fbuf : float array;
  mutable best_w : int; (* dls_scan beacon register *)
  mutable sel_w : int; (* neighbor-selection register *)
  mutable r_outcome : int;
  mutable r_hops : int;
  mutable r_next : int; (* found member (locate) / next hop (route step) *)
  mutable r_aux : int; (* header bits (route) / measurements (locate) *)
  (* Per-hop trace capture for the flight recorder: visited nodes land in
     [hop_log] while [log_hops] is set (the observed loop arms it for the
     deterministically sampled queries only). [hop_len] keeps counting
     past the buffer so callers can see truncation; when off, each hop
     pays one load and a fall-through branch — nothing is written and
     nothing allocates, preserving the 0-words-per-query budget. *)
  hop_log : int array;
  mutable hop_len : int;
  mutable log_hops : bool;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        m = [||];
        right_gen = [||];
        right_val = [||];
        gen = 0;
        memo_d = [||];
        memo_gen = [||];
        mgen = 0;
        fbuf = Array.make 8 0.0;
        best_w = -1;
        sel_w = -1;
        r_outcome = 0;
        r_hops = 0;
        r_next = 0;
        r_aux = 0;
        hop_log = Array.make 64 0;
        hop_len = 0;
        log_hops = false;
      })

let ensure sc ~decode ~virt ~nodes =
  if Array.length sc.m < decode then sc.m <- Array.make decode 0;
  if Array.length sc.right_gen < virt then begin
    sc.right_gen <- Array.make virt 0;
    sc.right_val <- Array.make virt 0;
    sc.gen <- 0
  end;
  if Array.length sc.memo_d < nodes then begin
    sc.memo_d <- Array.make nodes 0.0;
    sc.memo_gen <- Array.make nodes 0;
    sc.mgen <- 0
  end

(* ----------------------------------------------------------- the table *)

(* An opened image: what [Server] needs from a scheme per query. *)
type served = {
  n : int;
  sources : ints option; (* workload sources, when not every node may start *)
  bounds : int * int * int; (* the scratch's [ensure] bounds: decode, virt, nodes *)
  query : scratch -> kind:int -> src:int -> dst:int -> unit;
}

(* One row of [Server]'s scheme table. [kinds] maps a requested query
   kind (0 route, 1 dist, 2 locate) to the one the scheme executes;
   [open_] wraps exactly [ints] int and [floats] float sections. *)
type entry = {
  tag : int;
  name : string;
  ints : int;
  floats : int;
  kinds : int array;
  open_ : ints array -> floats array -> served;
}

let image entry isecs fsecs =
  { Image.scheme = entry.tag; isecs = Array.of_list isecs; fsecs = Array.of_list fsecs }

(* ------------------------------------------------------------- packing *)

let csr_off lens =
  let n = Array.length lens in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + lens.(i)
  done;
  off

(* Row-major concatenation: for rows of a common width [k], element [c]
   of row [r] lands at index [r * k + c]. *)
let cells rows = Array.concat (Array.to_list rows)

(* Per-cell runs, flattened: CSR offsets over the runs, and one off-heap
   int column holding [f] of each element, run after run. *)
let offsets runs = Image.ints_of_array (csr_off (Array.map Array.length runs))

let column runs f =
  let c = Image.ints_create (Array.fold_left (fun n r -> n + Array.length r) 0 runs) in
  let k = ref 0 in
  Array.iter
    (Array.iter (fun x ->
         A1.unsafe_set c !k (f x);
         incr k))
    runs;
  c

let flat_ints runs = (offsets runs, column runs Fun.id)

(* Per-cell (x, y, z) triple runs: offsets plus three parallel columns. *)
let flat_triples runs =
  ( offsets runs,
    column runs (fun (x, _, _) -> x),
    column runs (fun (_, y, _) -> y),
    column runs (fun (_, _, z) -> z) )

(* Per-node (w, next, cost) routing tables. *)
let flat_table table =
  ( offsets table,
    column table (fun (w, _, _) -> w),
    column table (fun (_, next, _) -> next),
    Image.floats_of_array (cells (Array.map (Array.map (fun (_, _, cost) -> cost)) table)) )

(* ------------------------------------------------------------- lookups *)

(* Index of [w] in the sorted run [s, e) of [a], or -1. *)
let rec find (a : ints) s e w =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let mw = ig a mid in
    if mw < w then find a (mid + 1) e w
    else if mw = w then mid
    else find a s mid w
  end

(* Exact (x, y) lookup in [s, e) of triples sorted by (x, y): the z
   value, or -1. *)
let rec z_find (zx : ints) (zy : ints) (zz : ints) s e x y =
  if s >= e then -1
  else begin
    let mid = (s + e) / 2 in
    let mx = ig zx mid in
    if mx < x || (mx = x && ig zy mid < y) then z_find zx zy zz (mid + 1) e x y
    else if mx = x && ig zy mid = y then ig zz mid
    else z_find zx zy zz s mid x y
  end

(* Append a visited node to the hop trace; counting continues past the
   buffer so the recorder can tell a truncated trace from a full one. *)
let[@inline] log_hop sc node =
  if sc.log_hops then begin
    if sc.hop_len < Array.length sc.hop_log then sc.hop_log.(sc.hop_len) <- node;
    sc.hop_len <- sc.hop_len + 1
  end

(* ---------------------------------------------------------- route loop *)

(* A frozen router. [step sc ~dst ~node ~st] is one hop of the live
   scheme's step function at [node], whose varying header field is encoded
   in the int [st]: it writes the next node to r_next and the next state
   to r_aux, and returns the index of the hop's length in [cost] — or -1
   when the image cannot answer, which ends the walk with [code_error]. *)
type router = {
  step : scratch -> dst:int -> node:int -> st:int -> int;
  cost : floats;
  max_hops : int;
}

let[@inline] finish sc code hops =
  sc.r_outcome <- code;
  sc.r_hops <- hops

(* [Scheme.simulate]'s Brent loop over (node, state): per hop, cycle
   check first, then checkpoint refresh at power-of-two hop counts, then
   delivery, then the step. *)
let rec walk r sc ~dst node st saved_node saved_st power hops =
  if hops > 0 && node = saved_node && st = saved_st then finish sc code_cycled hops
  else begin
    let refresh = hops = power in
    let saved_node = if refresh then node else saved_node in
    let saved_st = if refresh then st else saved_st in
    let power = if refresh then 2 * power else power in
    if node = dst then finish sc code_delivered hops
    else begin
      let c = r.step sc ~dst ~node ~st in
      if c < 0 then finish sc code_error hops
      else begin
        let next = sc.r_next in
        if next = node then finish sc code_self_forward hops
        else if hops >= r.max_hops then finish sc code_truncated hops
        else begin
          sc.fbuf.(2) <- sc.fbuf.(2) +. fg r.cost c;
          log_hop sc next;
          walk r sc ~dst next sc.r_aux saved_node saved_st power (hops + 1)
        end
      end
    end
  end

(* Route [src -> dst] from header state [st]; [hb] is the route's header
   size in bits. Writes r_outcome, r_hops, r_aux = hb and fbuf.(2). *)
let route r sc ~src ~dst ~st ~hb =
  sc.fbuf.(2) <- 0.0;
  walk r sc ~dst src st src st 1 0;
  sc.r_aux <- hb
