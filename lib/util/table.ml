let fnum x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 100.0 then Printf.sprintf "%.1f" x
  else if Float.abs x >= 1.0 then Printf.sprintf "%.2f" x
  else if Float.abs x >= 0.001 then Printf.sprintf "%.4f" x
  else if x = 0.0 then "0"
  else Printf.sprintf "%.3e" x

let render ~header ~rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all in
  let width = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> width.(i) <- Stdlib.max width.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < ncols - 1 then Buffer.add_string buf (String.make (width.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  let rule = List.mapi (fun i _ -> String.make width.(i) '-') header in
  emit rule;
  List.iter emit rows;
  Buffer.contents buf

let series ~title ~x_label ~columns ~rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  let header = x_label :: columns in
  let body = List.map (fun (x, ys) -> fnum x :: List.map fnum ys) rows in
  Buffer.add_string buf (render ~header ~rows:body);
  Buffer.contents buf
