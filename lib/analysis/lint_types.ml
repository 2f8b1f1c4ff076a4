type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | Parse_error

type severity = Error | Warning

type finding = {
  rule : rule;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  suppressed : bool;
}

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | Parse_error -> "parse"

let severity_id = function Error -> "error" | Warning -> "warning"

let make ?(severity = Error) ~rule ~file ~line ~col message =
  { rule; severity; file; line; col; message; suppressed = false }

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_id a.rule) (rule_id b.rule)

let to_human f =
  Printf.sprintf "%s:%d:%d: [%s/%s] %s" f.file f.line f.col (rule_id f.rule)
    (severity_id f.severity) f.message

let to_json findings =
  let esc = Repro_obs.Sink.json_escape in
  let one f =
    Printf.sprintf
      "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
      (rule_id f.rule) (severity_id f.severity) (esc f.file) f.line f.col (esc f.message)
  in
  "[" ^ String.concat "," (List.map one findings) ^ "]"
