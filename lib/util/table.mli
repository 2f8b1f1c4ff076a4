(** ASCII rendering of experiment output: aligned tables for the paper's
    tables and row-per-x series for its figures. *)

val render : header:string list -> rows:string list list -> string
(** Column-aligned table with a separator under the header. *)

val series :
  title:string -> x_label:string -> columns:string list ->
  rows:(float * float list) list -> string
(** [series ~title ~x_label ~columns ~rows] renders one figure panel: each
    row is an x value followed by one y value per named column (matching the
    paper's lines within a plot). *)

val fnum : float -> string
(** Compact float formatting: integers render without a decimal point,
    small values keep enough significant digits to be comparable. *)
