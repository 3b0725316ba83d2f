(* Frozen, off-heap query servers: the table of frozen schemes, one row
   per scheme module, and the open/query surface over it. [of_image]
   checks an image against its tag's row once, at load. *)

(* The scratch type, section types and outcome codes are shared with the
   scheme modules. *)
include Frozen

(* The scheme table, in tag order. *)
let table =
  [
    Frozen_basic.entry;
    Frozen_labelled.entry;
    Frozen_two_mode.entry;
    Frozen_meridian.entry;
    Frozen_landmark.entry;
  ]

let schemes = List.map (fun e -> (e.tag, e.name)) table

type t = { img : Image.t; scheme : entry; s : served }

let image t = t.img
let byte_size t = Image.byte_size t.img
let save t file = Image.save t.img file
let scheme_tag t = t.scheme.tag
let scheme_name t = t.scheme.name
let size t = t.s.n
let sources t = t.s.sources

let scratch_for t =
  let sc = Domain.DLS.get scratch_key in
  let decode, virt, nodes = t.s.bounds in
  ensure sc ~decode ~virt ~nodes;
  sc

let of_image (img : Image.t) =
  let ni = Array.length img.Image.isecs and nf = Array.length img.Image.fsecs in
  match List.find_opt (fun e -> e.tag = img.Image.scheme) table with
  | None -> Error (Printf.sprintf "unknown scheme tag %d" img.Image.scheme)
  | Some e when ni <> e.ints || nf <> e.floats ->
    Error
      (Printf.sprintf "%s image: expected %d int / %d float sections, got %d / %d" e.name
         e.ints e.floats ni nf)
  | Some e -> Ok { img; scheme = e; s = e.open_ img.Image.isecs img.Image.fsecs }

let load file =
  match Image.load file with Error e -> Error e | Ok img -> of_image img

(* Query kinds (workload side): 0 route, 1 dist, 2 locate. Each scheme
   collapses unsupported kinds onto its native operation. *)
let effective_kind t kind = t.scheme.kinds.(kind)

(* Execute one query, writing the scratch result registers:
   route (kind 0):  r_outcome, r_hops, r_aux = header bits, fbuf.(2) = length
   dist (kind 1):   fbuf.(3) = lo, fbuf.(4) = hi
   locate (kind 2): r_next = found, r_hops, r_aux = measurements *)
let query t sc ~kind ~src ~dst =
  sc.r_outcome <- 0;
  sc.r_hops <- 0;
  sc.r_next <- 0;
  sc.r_aux <- 0;
  if sc.log_hops then sc.hop_len <- 0;
  sc.fbuf.(2) <- 0.0;
  sc.fbuf.(3) <- 0.0;
  sc.fbuf.(4) <- 0.0;
  t.s.query sc ~kind ~src ~dst
