let mean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let n = List.length xs in
      List.fold_left ( +. ) 0.0 xs /. float_of_int n

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
