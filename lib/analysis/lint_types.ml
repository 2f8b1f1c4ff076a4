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

let rule_of_id = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "parse" -> Some Parse_error
  | _ -> None

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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json findings =
  let one f =
    Printf.sprintf
      "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
      (rule_id f.rule) (severity_id f.severity) (json_escape f.file) f.line f.col
      (json_escape f.message)
  in
  "[" ^ String.concat "," (List.map one findings) ^ "]"

let rule_description = function
  | R1 -> "Determinism: no wall-clock, self-seeded randomness, or hash-order iteration"
  | R2 -> "Comparison safety: no polymorphic compare in message/state paths"
  | R3 -> "Exception hygiene: no failwith/invalid_arg/assert-false in library code"
  | R4 -> "Interface coverage: every lib module has an .mli with no unused exports"
  | R5 -> "Quorum hygiene: quorum and committee sizes come from Config"
  | R6 -> "Console hygiene: no direct console printing in library code"
  | R7 -> "Domain safety: no unguarded shared mutable state reachable from domain tasks"
  | R8 -> "Nondeterminism sources: no ambient entropy reaching traces or consensus state"
  | R9 -> "Reachability: every lib module is used by bin/, bench/ or examples/ code"
  | Parse_error -> "File failed to parse"

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; Parse_error ]

let to_sarif findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",";
  Buffer.add_string buf "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"ahl_lint\",\"rules\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}" (rule_id r)
           (json_escape (rule_description r))))
    all_rules;
  Buffer.add_string buf "]}},\"results\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      (* SARIF regions are 1-based; whole-file findings carry line 0 here. *)
      let line = max 1 f.line and col = max 1 f.col in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
           (rule_id f.rule) (severity_id f.severity) (json_escape f.message) (json_escape f.file)
           line col))
    findings;
  Buffer.add_string buf "]}]}";
  Buffer.contents buf
