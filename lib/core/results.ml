open Repro_util

type panel = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (float * float list) list;
}

type figure = { id : string; caption : string; panels : panel list }

let panel ~title ~x_label ~columns ~rows = { title; x_label; columns; rows }

let figure ~id ~caption panels = { id; caption; panels }

let render f =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "==== %s: %s ====\n" f.id f.caption);
  List.iter
    (fun p ->
      if p.columns = [] && p.rows = [] then Buffer.add_string buf (p.title ^ "\n")
      else
        Buffer.add_string buf
          (Table.series ~title:p.title ~x_label:p.x_label ~columns:p.columns ~rows:p.rows))
    f.panels;
  Buffer.contents buf

(* The one sanctioned console write of lib/core: the exported figure
   printer that bin calls on purpose. *)
let print f = print_string (render f) (* ahl_lint: allow R6 *)

let text_figure ~id ~caption body =
  { id; caption; panels = [ { title = body; x_label = ""; columns = []; rows = [] } ] }

(* ---- machine-readable artifacts ----------------------------------- *)

let json_escape = Repro_obs.Sink.json_escape

let json_num x =
  if Float.is_nan x then "null"
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%g" x

let to_json ?wall_time_s ?jobs f =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "{\"id\":\"%s\",\"caption\":\"%s\"" (json_escape f.id) (json_escape f.caption));
  Option.iter (fun t -> Buffer.add_string buf (Printf.sprintf ",\"wall_time_s\":%.3f" t)) wall_time_s;
  Option.iter (fun j -> Buffer.add_string buf (Printf.sprintf ",\"jobs\":%d" j)) jobs;
  Buffer.add_string buf ",\"panels\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      if p.columns = [] && p.rows = [] then
        (* Preformatted text figure: the body lives in the title. *)
        Buffer.add_string buf (Printf.sprintf "{\"text\":\"%s\"}" (json_escape p.title))
      else begin
        Buffer.add_string buf
          (Printf.sprintf "{\"title\":\"%s\",\"x_label\":\"%s\",\"columns\":[%s],\"rows\":["
             (json_escape p.title) (json_escape p.x_label)
             (String.concat "," (List.map (fun c -> "\"" ^ json_escape c ^ "\"") p.columns)));
        List.iteri
          (fun j (x, ys) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "{\"x\":%s,\"values\":[%s]}" (json_num x)
                 (String.concat "," (List.map json_num ys))))
          p.rows;
        Buffer.add_string buf "]}"
      end)
    f.panels;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let save_json ~dir ?wall_time_s ?jobs f =
  Repro_obs.Sink.save
    ~path:(Filename.concat dir (Printf.sprintf "BENCH_%s.json" f.id))
    (to_json ?wall_time_s ?jobs f)
