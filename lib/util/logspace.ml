(* Lanczos approximation with g = 7, n = 9 coefficients (Numerical Recipes
   variant); relative error below 1e-10 over the positive reals. *)
let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula: Γ(x)Γ(1-x) = π / sin(πx). *)
    log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let a = ref lanczos_coefficients.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else if k = 0 || k = n then 0.0
  else
    log_gamma (float_of_int (n + 1))
    -. log_gamma (float_of_int (k + 1))
    -. log_gamma (float_of_int (n - k + 1))

let log_add a b =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else if a > b then a +. log1p (exp (b -. a))
  else b +. log1p (exp (a -. b))

let hypergeom_log_pmf ~total ~bad ~draws ~k =
  if k < 0 || k > draws || k > bad || draws - k > total - bad then neg_infinity
  else log_choose bad k +. log_choose (total - bad) (draws - k) -. log_choose total draws

let hypergeom_log_tail ~total ~bad ~draws ~at_least =
  let hi = Stdlib.min draws bad in
  if at_least > hi then neg_infinity
  else begin
    let acc = ref neg_infinity in
    for k = Stdlib.max 0 at_least to hi do
      acc := log_add !acc (hypergeom_log_pmf ~total ~bad ~draws ~k)
    done;
    Float.min !acc 0.0
  end

let hypergeom_tail ~total ~bad ~draws ~at_least =
  exp (hypergeom_log_tail ~total ~bad ~draws ~at_least)

let binomial_tail ~n ~p ~at_least =
  if at_least <= 0 then 1.0
  else if at_least > n then 0.0
  else if p <= 0.0 then 0.0
  else if p >= 1.0 then 1.0
  else begin
    let lp = log p and lq = log (1.0 -. p) in
    let acc = ref neg_infinity in
    for k = at_least to n do
      let term = log_choose n k +. (float_of_int k *. lp) +. (float_of_int (n - k) *. lq) in
      acc := log_add !acc term
    done;
    exp (Float.min !acc 0.0)
  end
