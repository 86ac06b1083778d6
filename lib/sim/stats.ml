type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let mean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let n = List.length xs in
      List.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = List.length xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. float_of_int (n - 1))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p <= 0.0 then sorted.(0)
  else if p >= 100.0 then sorted.(n - 1)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then sorted.(lo)
    else
      let w = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
      if List.exists Float.is_nan xs then
        invalid_arg "Stats.summarize: NaN in sample";
      let a = Array.of_list xs in
      (* Float.compare, not polymorphic compare: the latter treats every
         NaN comparison as an unordered lie and can leave the array
         mis-sorted; with NaN rejected above the two agree, but keep the
         sort total on principle. *)
      Array.sort Float.compare a;
      let n = Array.length a in
      {
        n;
        mean = mean xs;
        stddev = stddev xs;
        min = a.(0);
        p50 = percentile a 50.0;
        p90 = percentile a 90.0;
        p99 = percentile a 99.0;
        max = a.(n - 1);
      }

let rate ~hits ~total =
  if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total

let wilson ~hits ~total =
  if total = 0 then (0.0, 100.0)
  else begin
    let z = 1.959964 (* 97.5th percentile of the standard normal *) in
    let n = float_of_int total in
    let p = float_of_int hits /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let half = z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) in
    (100.0 *. (centre -. half) /. denom, 100.0 *. (centre +. half) /. denom)
  end
