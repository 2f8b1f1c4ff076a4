open Lint_types

(* ------------------------------------------------------------------ *)
(* Rule scoping by path                                                *)
(* ------------------------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Wall-clock and ambient randomness: the whole deterministic core. *)
let in_r1_call_scope path = starts_with ~prefix:"lib/" path || starts_with ~prefix:"bin/" path

(* Hash-order iteration: library code only (bench/test may print freely). *)
let in_r1_table_scope path = starts_with ~prefix:"lib/" path

(* A [Hashtbl.Make] instance carries its own unsorted [iter]/[fold], which
   the [Hashtbl.iter]/[fold] ban cannot see; instances live in [lib/util/]
   behind interfaces that expose only sorted traversal. *)
let in_r1_functor_scope path = in_r1_table_scope path && not (starts_with ~prefix:"lib/util/" path)

(* Polymorphic comparison: the consensus/ledger/shard message and state
   paths, where a structural compare on a float- or closure-carrying value
   is a latent crash or a silent ordering divergence. *)
let in_r2_scope path =
  starts_with ~prefix:"lib/consensus/" path
  || starts_with ~prefix:"lib/ledger/" path
  || starts_with ~prefix:"lib/shard/" path

(* Bare [compare] handed to a sort/dedup: the whole library tree.  A
   polymorphic comparator deep in a hot path is both a perf trap and a
   latent crash on float/closure-carrying elements, wherever it lives —
   the narrower [in_r2_scope] already flags the ident itself, so this
   broader rule only reports where that one stays quiet. *)
let in_r2_sort_scope path = starts_with ~prefix:"lib/" path

let in_r3_scope path = starts_with ~prefix:"lib/" path

(* Bare quorum arithmetic: consensus and shard paths, minus the three
   modules whose whole job is to compute those sizes. *)
let r5_allowlist =
  [ "lib/consensus/config.ml"; "lib/consensus/quorum.ml"; "lib/shard/sizing.ml" ]

let in_r5_scope path =
  (starts_with ~prefix:"lib/consensus/" path || starts_with ~prefix:"lib/shard/" path)
  && not (List.exists (String.equal path) r5_allowlist)

(* Direct console printing: the whole library tree, minus the two modules
   whose exported job is rendering to stdout.  Library code reports
   through Repro_obs probes or returns strings for bin/bench to print. *)
let r6_allowlist = [ "lib/obs/sink.ml"; "lib/util/table.ml" ]

let in_r6_scope path =
  starts_with ~prefix:"lib/" path && not (List.exists (String.equal path) r6_allowlist)

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten p @ [ s ]
  | Longident.Lapply (p, _) -> flatten p

let last2 parts =
  match List.rev parts with b :: a :: _ -> Some (a, b) | _ -> None

(* ------------------------------------------------------------------ *)
(* Banned identifiers                                                  *)
(* ------------------------------------------------------------------ *)

let r1_banned_calls =
  [
    ("Random", "self_init", "seed all randomness from the engine seed (Repro_util.Rng)");
    ("Sys", "time", "use Engine.now for simulated time");
    ("Unix", "gettimeofday", "use Engine.now for simulated time");
    ("Unix", "time", "use Engine.now for simulated time");
    ("Unix", "gmtime", "wall-clock calendar time is nondeterministic across runs");
    ("Unix", "localtime", "wall-clock calendar time is nondeterministic across runs");
  ]

let r1_banned_tables =
  [
    ("Hashtbl", "iter", "iterates in hash-bucket order; use Repro_util.Det.iter ~compare");
    ("Hashtbl", "fold", "folds in hash-bucket order; use Repro_util.Det.fold ~compare");
  ]

let r2_banned_idents =
  [
    ("List", "mem", "uses polymorphic equality; use List.exists with an explicit equal");
    ("List", "assoc", "uses polymorphic equality; use List.find_map with an explicit equal");
    ("List", "assoc_opt", "uses polymorphic equality; use List.find_map with an explicit equal");
    ("List", "mem_assoc", "uses polymorphic equality; use List.exists with an explicit equal");
    ("List", "remove_assoc", "uses polymorphic equality; use List.filter with an explicit equal");
    ("Stdlib", "compare", "polymorphic compare; use the key type's compare (Int/String/Float/...)");
    ("Poly", "compare", "polymorphic compare; use the key type's compare (Int/String/Float/...)");
    ("Pervasives", "compare", "polymorphic compare; use the key type's compare");
    ("Stdlib", "min", "polymorphic min; use the operand type's min (Int.min/Float.min/...)");
    ("Stdlib", "max", "polymorphic max; use the operand type's max (Int.max/Float.max/...)");
    ("Pervasives", "min", "polymorphic min; use the operand type's min (Int.min/Float.min/...)");
    ("Pervasives", "max", "polymorphic max; use the operand type's max (Int.max/Float.max/...)");
  ]

(* ------------------------------------------------------------------ *)
(* Expression checks                                                   *)
(* ------------------------------------------------------------------ *)

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol + 1)

(* Structural operand heuristic for R2: [=]/[<>] applied to a constructor,
   tuple, record, array, or polymorphic-variant expression is comparing a
   non-scalar shape.  [true]/[false] are exempt (scalar). *)
let is_structural (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident ("true" | "false"); _ }, None) -> false
  | Pexp_construct _ | Pexp_tuple _ | Pexp_record _ | Pexp_variant _ | Pexp_array _ -> true
  | _ -> false

(* R5 shape: [p + 1] or [1 + p] where [p] is a product with a literal 2
   or 3 factor — the textbook [2*f+1] / [3*f+1] quorum formulas. *)
let is_const_int n (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> (
      match int_of_string_opt s with Some v -> v = n | None -> false)
  | _ -> false

let is_quorum_product (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident "*"; _ }; _ }, [ (_, a); (_, b) ]) ->
      is_const_int 2 a || is_const_int 3 a || is_const_int 2 b || is_const_int 3 b
  | _ -> false

let check_ident ~path ~report lid loc =
  let parts = flatten lid in
  let pair = last2 parts in
  (if in_r1_call_scope path then
     List.iter
       (fun (m, v, hint) ->
         let matches =
           match pair with
           | Some (a, b) -> String.equal a m && String.equal b v
           | None -> false
         in
         if matches then
           report ~rule:R1 ~severity:Error loc (Printf.sprintf "%s.%s is nondeterministic: %s" m v hint))
       r1_banned_calls);
  (if in_r1_table_scope path then
     List.iter
       (fun (m, v, hint) ->
         let matches =
           match pair with
           | Some (a, b) -> String.equal a m && String.equal b v
           | None -> false
         in
         if matches then
           report ~rule:R1 ~severity:Error loc (Printf.sprintf "%s.%s %s" m v hint))
       r1_banned_tables);
  if in_r2_scope path then begin
    (match parts with
    | [ "compare" ] ->
        report ~rule:R2 ~severity:Error loc
          "bare polymorphic compare; use the key type's compare (Int/String/Float/...)"
    | [ (("min" | "max") as op) ] ->
        report ~rule:R2 ~severity:Error loc
          (Printf.sprintf
             "bare polymorphic %s; use the operand type's %s (Int.%s/Float.%s/...)" op op op op)
    | _ -> ());
    List.iter
      (fun (m, v, hint) ->
        let matches =
          match pair with
          | Some (a, b) -> String.equal a m && String.equal b v
          | None -> false
        in
        if matches then report ~rule:R2 ~severity:Error loc (Printf.sprintf "%s.%s %s" m v hint))
      r2_banned_idents
  end;
  (if in_r6_scope path then
     let flag what =
       report ~rule:R6 ~severity:Error loc
         (Printf.sprintf
            "%s prints to the console from library code; emit a Repro_obs probe event or return \
             the string"
            what)
     in
     match parts with
     | [ "Printf"; ("printf" | "eprintf") ] -> flag ("Printf." ^ List.nth parts 1)
     | [ ("print_string" | "print_endline" | "print_newline" | "prerr_string" | "prerr_endline")
       ]
     | [ "Stdlib";
         ("print_string" | "print_endline" | "print_newline" | "prerr_string" | "prerr_endline")
       ] ->
         flag (List.nth parts (List.length parts - 1))
     | _ -> ());
  if in_r3_scope path then begin
    match parts with
    | [ "failwith" ] | [ "Stdlib"; "failwith" ] ->
        report ~rule:R3 ~severity:Warning loc
          "failwith raises an untyped exception; return a typed result instead"
    | [ "invalid_arg" ] | [ "Stdlib"; "invalid_arg" ] ->
        report ~rule:R3 ~severity:Warning loc
          "invalid_arg raises an untyped exception; return a typed result instead"
    | _ -> ()
  end

(* Sort/dedup callees whose comparator argument R2 polices everywhere. *)
let is_sort_callee lid =
  match last2 (flatten lid) with
  | Some (("List" | "Array"), ("sort" | "sort_uniq" | "stable_sort" | "fast_sort")) -> true
  | Some ("Det", ("iter" | "fold" | "bindings")) -> true
  | _ -> false

let is_bare_compare (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [ "compare" ]
      | [ "Stdlib"; "compare" ]
      | [ "Poly"; "compare" ]
      | [ "Pervasives"; "compare" ] ->
          true
      | _ -> false)
  | _ -> false

let check_expr ~path ~report (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> check_ident ~path ~report txt loc
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = callee; _ }; _ }, args)
    when in_r2_sort_scope path
         && not (in_r2_scope path)
         && is_sort_callee callee
         && List.exists (fun (_, a) -> is_bare_compare a) args ->
      report ~rule:R2 ~severity:Error e.pexp_loc
        "bare polymorphic compare passed to a sort/dedup; use the element type's compare \
         (Int/String/Float/...)"
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
        [ (_, a); (_, b) ] )
    when in_r2_scope path && (is_structural a || is_structural b) ->
      report ~rule:R2 ~severity:Error e.pexp_loc
        (Printf.sprintf
           "structural (%s) on a constructor/tuple/record operand; pattern-match or use \
            Option.is_none/is_some or an explicit equal"
           op)
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident (("==" | "!=") as op); _ }; _ }, _)
    when in_r2_scope path ->
      report ~rule:R2 ~severity:Error e.pexp_loc
        (Printf.sprintf "physical equality (%s) in a state path; use = on scalars or an explicit equal" op)
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident "+"; _ }; _ }, [ (_, a); (_, b) ])
    when in_r5_scope path
         && ((is_const_int 1 a && is_quorum_product b)
            || (is_const_int 1 b && is_quorum_product a)) ->
      report ~rule:R5 ~severity:Error e.pexp_loc
        "bare quorum arithmetic (2*f+1 / 3*f+1); use Config.quorum_size or Config.n_for_f"
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
    when in_r3_scope path ->
      report ~rule:R3 ~severity:Warning e.pexp_loc
        "assert false hides an impossible-case claim; make the state unrepresentable or return an error"
  | _ -> ()

let check_module_expr ~path ~report (m : Parsetree.module_expr) =
  match m.pmod_desc with
  | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) when in_r1_functor_scope path -> (
      match last2 (flatten txt) with
      | Some ("Hashtbl", (("Make" | "MakeSeeded") as f)) ->
          report ~rule:R1 ~severity:Error m.pmod_loc
            (Printf.sprintf
               "Hashtbl.%s instance exposes hash-order iter/fold; use Repro_util.Int_table or a \
                lib/util module with sorted traversal"
               f)
      | _ -> ())
  | _ -> ()

let of_structure ~path (structure : Parsetree.structure) =
  let acc = ref [] in
  let report ~rule ~severity loc message =
    let line, col = loc_pos loc in
    acc := make ~severity ~rule ~file:path ~line ~col message :: !acc
  in
  let super = Ast_iterator.default_iterator in
  let expr this e =
    check_expr ~path ~report e;
    super.expr this e
  in
  let module_expr this m =
    check_module_expr ~path ~report m;
    super.module_expr this m
  in
  let iterator = { super with expr; module_expr } in
  iterator.structure iterator structure;
  List.sort compare_finding !acc
