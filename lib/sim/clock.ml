type t = { l0 : Sim_time.t; g0 : Sim_time.t; num : int; den : int }

let ppm = 1_000_000

let perfect = { l0 = 0; g0 = 0; num = 1; den = 1 }

let create ?(l0 = Sim_time.zero) ?(g0 = Sim_time.zero) ~num ~den () =
  if num <= 0 || den <= 0 then invalid_arg "Clock.create: rate must be positive";
  { l0; g0; num; den }

let draw rng ~drift_ppm a i =
  if drift_ppm < 0 || drift_ppm >= ppm then
    invalid_arg "Clock.draw: drift_ppm out of range";
  a.(i) <- Rng.int_in rng ~lo:(ppm - drift_ppm) ~hi:(ppm + drift_ppm);
  a.(i + 1) <- Rng.int_in rng ~lo:0 ~hi:1000

let of_draw a i ~l0 ~g0 = { l0; g0; num = a.(i); den = ppm }

let random rng ~drift_ppm =
  let a = [| 0; 0 |] in
  draw rng ~drift_ppm a 0;
  of_draw a 0 ~l0:a.(1) ~g0:0

(* floor ((g - g0) * num / den), overflow-safe via the same hi/lo split as
   Sim_time.scale but flooring instead of ceiling. *)
let floor_scale t ~num ~den =
  if Sim_time.is_infinite t then Sim_time.infinity
  else
    let q = t / den and r = t mod den in
    let mul_sat a b = if a <> 0 && b > max_int / a then max_int else a * b in
    let hi = mul_sat q num in
    let lo = mul_sat r num / den in
    Sim_time.add hi lo

let local_of_global c g =
  let dg = Sim_time.sub g c.g0 in
  Sim_time.add c.l0 (floor_scale dg ~num:c.num ~den:c.den)

let global_of_local c l =
  if Sim_time.is_infinite l then Sim_time.infinity
  else
    let dl = Sim_time.sub l c.l0 in
    if dl = 0 then c.g0
    else Sim_time.add c.g0 (Sim_time.scale dl ~num:c.den ~den:c.num)
