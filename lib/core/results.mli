(** Result containers and rendering for the paper's tables and figures. *)

type panel = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (float * float list) list;
}

type figure = { id : string; caption : string; panels : panel list }

val panel :
  title:string -> x_label:string -> columns:string list -> rows:(float * float list) list -> panel

val figure : id:string -> caption:string -> panel list -> figure

val render : figure -> string

val print : figure -> unit

val text_figure : id:string -> caption:string -> string -> figure
(** A figure whose body is preformatted text (tables 1 and 3). *)

val to_json : ?wall_time_s:float -> ?jobs:int -> figure -> string
(** The whole figure as one JSON object — id, caption, panels with axis
    points and series values, plus optional wall-time and worker-count
    metadata — so successive runs can be diffed by tooling. *)

val save_json :
  dir:string -> ?wall_time_s:float -> ?jobs:int -> figure -> (unit, string) result
(** Write {!to_json} to [dir]/BENCH_<id>.json; [Error msg] on IO failure
    (a missing [dir] included). *)
