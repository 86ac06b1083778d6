(* Byzantine quorum systems.

   A quorum system over processes {0 .. size-1} with a declared fault
   bound f names which subsets of processes ("quorums") are allowed to
   certify a consensus step. Correctness of quorum-based consensus rests
   on two laws (Malkhi–Reiter's masking/dissemination conditions
   specialised to signed messages):

   - intersection: any two quorums share at least f+1 processes, so two
     conflicting certificates would need a correct process to sign both;
   - availability: some quorum contains no faulty process, so the
     correct processes alone can always make progress.

   Three families are provided. Each is described by a handful of
   integers, so both laws reduce to closed-form inequalities checked by
   [validate] — no subset enumeration anywhere:

   - [Majority]: every >= q of n processes is a quorum. Two quorums
     overlap in >= 2q - n processes; the adversary can place all f
     faults inside an overlap, so intersection needs 2q - n >= f + 1.
     Availability needs n - f >= q. The classic n = 3f+1, q = 2f+1
     satisfies both with equality.

   - [Weighted]: processes carry positive integer weights; a quorum is
     any set of total weight >= threshold T out of W total. Overlap
     weight is >= 2T - W; the adversary covers overlap weight with the
     f heaviest processes (weight top_f), so intersection needs
     2T - W > top_f. Availability needs W - top_f >= T.

   - [Grid]: processes form a rows x cols grid (index = r*cols + c); a
     quorum needs qr fully-present rows and qc fully-present columns.
     One quorum's rows cross the other's columns in qr*qc distinct
     processes, so intersection needs qr * qc >= f + 1. Killing one
     process kills at most one row and one column, so availability
     needs rows - f >= qr and cols - f >= qc. Quorum size grows as
     O(sqrt(size)) — the point of the family. *)

type t =
  | Majority of { n : int; f : int; q : int }
  | Weighted of { weights : int array; f : int; threshold : int }
  | Grid of { rows : int; cols : int; f : int; qr : int; qc : int }

let majority ?q ~n ~f () =
  let q = match q with Some q -> q | None -> (2 * f) + 1 in
  Majority { n; f; q }

let weighted ?threshold ~weights ~f () =
  let total = Array.fold_left ( + ) 0 weights in
  (* default threshold mirrors 2f+1 of 3f+1: just over two thirds *)
  let threshold =
    match threshold with Some t -> t | None -> ((2 * total) / 3) + 1
  in
  Weighted { weights = Array.copy weights; f; threshold }

let isqrt_ceil x =
  (* smallest s with s*s >= x, for the tiny x used as quorum sides *)
  let rec go s = if s * s >= x then s else go (s + 1) in
  if x <= 0 then 0 else go 1

let grid ?qr ?qc ~rows ~cols ~f () =
  let side = max 1 (isqrt_ceil (f + 1)) in
  let qr = match qr with Some v -> v | None -> side in
  let qc = match qc with Some v -> v | None -> side in
  Grid { rows; cols; f; qr; qc }

let size = function
  | Majority { n; _ } -> n
  | Weighted { weights; _ } -> Array.length weights
  | Grid { rows; cols; _ } -> rows * cols

let fault_bound = function
  | Majority { f; _ } | Weighted { f; _ } | Grid { f; _ } -> f

let family_name = function
  | Majority _ -> "majority"
  | Weighted _ -> "weighted"
  | Grid _ -> "grid"

let describe = function
  | Majority { n; f; q } -> Printf.sprintf "majority(n=%d,f=%d,q=%d)" n f q
  | Weighted { weights; f; threshold } ->
      Printf.sprintf "weighted(n=%d,f=%d,threshold=%d,total=%d)"
        (Array.length weights) f threshold
        (Array.fold_left ( + ) 0 weights)
  | Grid { rows; cols; f; qr; qc } ->
      Printf.sprintf "grid(%dx%d,f=%d,qr=%d,qc=%d)" rows cols f qr qc

(* sum of the f largest weights — what the adversary can sign with *)
let top_f_weight weights f =
  let sorted = Array.copy weights in
  Array.sort (fun a b -> compare b a) sorted;
  let acc = ref 0 in
  for i = 0 to min f (Array.length sorted) - 1 do
    acc := !acc + sorted.(i)
  done;
  !acc

let intersection_ok = function
  | Majority { n; f; q } -> (2 * q) - n >= f + 1
  | Weighted { weights; f; threshold } ->
      let total = Array.fold_left ( + ) 0 weights in
      (2 * threshold) - total > top_f_weight weights f
  | Grid { f; qr; qc; _ } -> qr * qc >= f + 1

let availability_ok = function
  | Majority { n; f; q } -> n - f >= q
  | Weighted { weights; f; threshold } ->
      let total = Array.fold_left ( + ) 0 weights in
      total - top_f_weight weights f >= threshold
  | Grid { rows; cols; f; qr; qc } -> rows - f >= qr && cols - f >= qc

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let structural =
    match t with
    | Majority { n; f; q } ->
        if n <= 0 then err "majority: n must be positive"
        else if f < 0 then err "majority: f must be >= 0"
        else if q <= 0 || q > n then err "majority: need 0 < q <= n"
        else Ok ()
    | Weighted { weights; f; threshold } ->
        let total = Array.fold_left ( + ) 0 weights in
        if Array.length weights = 0 then err "weighted: no processes"
        else if Array.exists (fun w -> w <= 0) weights then
          err "weighted: weights must be positive"
        else if f < 0 then err "weighted: f must be >= 0"
        else if threshold <= 0 || threshold > total then
          err "weighted: need 0 < threshold <= total weight"
        else Ok ()
    | Grid { rows; cols; f; qr; qc } ->
        if rows <= 0 || cols <= 0 then err "grid: empty grid"
        else if f < 0 then err "grid: f must be >= 0"
        else if qr <= 0 || qr > rows then err "grid: need 0 < qr <= rows"
        else if qc <= 0 || qc > cols then err "grid: need 0 < qc <= cols"
        else Ok ()
  in
  match structural with
  | Error _ as e -> e
  | Ok () ->
      if not (intersection_ok t) then
        err "%s: quorums may intersect in fewer than f+1 = %d processes"
          (describe t)
          (fault_bound t + 1)
      else if not (availability_ok t) then
        err "%s: no quorum survives %d faults" (describe t) (fault_bound t)
      else Ok ()

let is_quorum t ~present =
  if Array.length present <> size t then
    invalid_arg "Quorum_system.is_quorum: present array has the wrong length";
  match t with
  | Majority { q; _ } ->
      (* a plain loop over local refs: no closure, nothing allocated *)
      let c = ref 0 in
      for i = 0 to Array.length present - 1 do
        if present.(i) then incr c
      done;
      !c >= q
  | Weighted { weights; threshold; _ } ->
      let w = ref 0 in
      for i = 0 to Array.length present - 1 do
        if present.(i) then w := !w + weights.(i)
      done;
      !w >= threshold
  | Grid { rows; cols; qr; qc; _ } ->
      let full_rows = ref 0 in
      for r = 0 to rows - 1 do
        let full = ref true in
        for c = 0 to cols - 1 do
          if not present.((r * cols) + c) then full := false
        done;
        if !full then incr full_rows
      done;
      let full_cols = ref 0 in
      for c = 0 to cols - 1 do
        let full = ref true in
        for r = 0 to rows - 1 do
          if not present.((r * cols) + c) then full := false
        done;
        if !full then incr full_cols
      done;
      !full_rows >= qr && !full_cols >= qc
