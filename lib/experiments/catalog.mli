(** The reproduction experiments in run order, [(id, title, run)]: the one
    table [bench/main.exe] and [ron_cli experiment] read. *)
val all : (string * string * (unit -> unit)) list
