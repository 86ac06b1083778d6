(* Pure helpers shared by the benchmark and its tests: order statistics,
   the regression-bound rule, and the profiler role rollup. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (method "exclusive"), so the quartiles
   the benchmark prints match the ones an outside checker computes. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 and n = 4 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n
      in
      (q 1, q 3)

(* The median of the best quarter of [xs] (at least one sample), best by
   [better]. Contention from other work on a shared host only ever slows
   a sample, so the best samples are the ones that measured the program
   rather than its neighbours. *)
let best_quarter ~(better : Catalogue.better) xs =
  let s = sorted xs in
  let s = match better with Higher -> List.rev s | Lower -> s in
  let k = max 1 (List.length s / 4) in
  median (List.filteri (fun i _ -> i < k) s)

(* The share by which [now] is worse than [base] in the metric's own
   direction; negative when it is better. A zero base is only worse when
   [now] moved the wrong way at all. *)
let worse_by ~(better : Catalogue.better) ~base now =
  let diff = match better with Higher -> base -. now | Lower -> now -. base in
  if base = 0. then if diff > 0. then Float.infinity else 0.
  else diff /. Float.abs base

let within_bound ~better ~bound ~base now = worse_by ~better ~base now <= bound

type cost = { count : int; wall_ns : int; words : int }

let zero = { count = 0; wall_ns = 0; words = 0 }

let add a b =
  {
    count = a.count + b.count;
    wall_ns = a.wall_ns + b.wall_ns;
    words = a.words + b.words;
  }

(* Profiler sites, given as (label, kind, cost), summed per
   (role, kind) in {!Catalogue.roles} order, kinds sorted by name. *)
let by_role_kind sites =
  let rank r =
    let rec go i = function
      | [] -> i
      | x :: rest -> if x = r then i else go (i + 1) rest
    in
    go 0 Catalogue.roles
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (label, kind, c) ->
      let key = (Catalogue.role_of_label label, kind) in
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:zero in
      Hashtbl.replace tbl key (add prev c))
    sites;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun ((r1, k1), _) ((r2, k2), _) ->
         compare (rank r1, k1) (rank r2, k2))

(* Every role of {!Catalogue.roles}, in order, with its summed cost (zero
   for roles the run never dispatched to). *)
let by_role sites =
  let rk = by_role_kind sites in
  List.map
    (fun r ->
      ( r,
        List.fold_left
          (fun acc ((r', _), c) -> if r' = r then add acc c else acc)
          zero rk ))
    Catalogue.roles
