exception Invalid_witness of string

let fl = Printf.sprintf "%.17g"

let float s = match float_of_string_opt s with Some x -> x | None -> raise (Invalid_witness s)

let nat s =
  match int_of_string_opt s with Some i when i >= 0 -> i | _ -> raise (Invalid_witness s)

let nats sep s = List.map nat (String.split_on_char sep s)

let ids = function [] -> "-" | ids -> String.concat "," (List.map string_of_int ids)

let ids_of = function "-" -> [] | s -> nats ',' s

let field ~witness key tok =
  match String.split_on_char '=' tok with
  | [ k; v ] when String.equal k key -> v
  | _ -> raise (Invalid_witness witness)

let timed tok =
  match List.rev (String.split_on_char ':' tok) with
  | stop :: start :: rest -> (List.rev rest, float start, float stop)
  | _ -> raise (Invalid_witness tok)
