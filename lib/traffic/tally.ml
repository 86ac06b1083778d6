type outcome = Committed | Aborted | Rejected | Stuck | Violated

let outcomes = [ Committed; Aborted; Rejected; Stuck; Violated ]

let outcome_name = function
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Rejected -> "rejected"
  | Stuck -> "stuck"
  | Violated -> "violated"

type t = {
  mutable assigned : int;
  counts : (outcome, int) Hashtbl.t;
  lats : (int, int) Hashtbl.t;  (** commit latency -> multiplicity *)
  mutable first : int;
  mutable sorted : (int * int) list option;  (** [lats] ascending, if fresh *)
}

let create () =
  {
    assigned = 0;
    counts = Hashtbl.create 5;
    lats = Hashtbl.create 64;
    first = max_int;
    sorted = None;
  }

let find tbl k = try Hashtbl.find tbl k with Not_found -> 0
let bump tbl k n = Hashtbl.replace tbl k (find tbl k + n)
let assign t = t.assigned <- t.assigned + 1
let add t o = bump t.counts o 1

let commit t ~payment ~latency =
  add t Committed;
  bump t.lats latency 1;
  t.first <- min t.first payment;
  t.sorted <- None

let merge a b =
  let t = create () in
  List.iter
    (fun s ->
      t.assigned <- t.assigned + s.assigned;
      t.first <- min t.first s.first;
      Hashtbl.iter (bump t.counts) s.counts;
      Hashtbl.iter (bump t.lats) s.lats)
    [ a; b ];
  t

let assigned t = t.assigned
let count t o = find t.counts o
let first_commit t = t.first

let latencies t =
  match t.sorted with
  | Some l -> l
  | None ->
      let l = Hashtbl.fold (fun lat n acc -> (lat, n) :: acc) t.lats [] in
      let l = List.sort compare l in
      t.sorted <- Some l;
      l

let percentile t q =
  let n = count t Committed in
  let idx = max 0 (min (n - 1) ((((q * n) + 99) / 100) - 1)) in
  let rec walk seen = function
    | [] -> 0
    | (lat, k) :: rest -> if idx < seen + k then lat else walk (seen + k) rest
  in
  walk 0 (latencies t)
