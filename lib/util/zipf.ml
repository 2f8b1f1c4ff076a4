type t = { n : int; cdf : float array }

let create ~n ~theta =
  if n <= 0 then Invariant.fail "Zipf.create: n = %d must be positive" n;
  if theta < 0.0 then Invariant.fail "Zipf.create: theta = %g must be non-negative" theta;
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* First index whose cdf >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t i =
  if i < 0 || i >= t.n then Invariant.fail "Zipf.pmf: rank %d outside [0, %d)" i t.n;
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)
