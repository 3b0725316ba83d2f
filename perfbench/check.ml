(* The correctness gate. A failed check stops the run, which then exits
   non-zero naming the check. *)

exception Failed of string * string

(* Names of the checks that held, newest first. *)
let passed = ref []

let pass name = if not (List.mem name !passed) then passed := name :: !passed

let require name ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then raise (Failed (name, msg));
      pass name)
    fmt
