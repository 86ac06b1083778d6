type arrival =
  | Poisson of { gap : int }
  | Closed of { clients : int; think : int }
  | Burst of { size : int; every : int }
  | Ramp of { gap_hi : int; gap_lo : int }

type proto = Protocols.Proto.t =
  | Sync | Naive | Htlc | Weak_single | Committee | Shared | Atomic

type policy = Reserve | Optimistic

type committee = {
  c_family : string;
  c_size : int;
  c_f : int;
  c_batch : int;
  c_pipeline : int;
  c_faulty : int;
}

type t = {
  payments : int;
  hops : int;
  value : int;
  commission : int;
  arrival : arrival;
  mix : (proto * int) list;
  policy : policy;
  cap : int;
  liquidity : int;
  patience : int;
  stuck_after : int;
  drift_ppm : int;
  gst : int option;
  topology : Routing.Topology.t option;
  route : Routing.Router.strategy;
  splits : int;
  committee : committee option;
}

let default ~payments =
  {
    payments;
    hops = 2;
    value = 1000;
    commission = 10;
    arrival = Poisson { gap = 40 };
    mix = [ (Sync, 1) ];
    policy = Reserve;
    cap = 0;
    liquidity = 0;
    patience = 2_000;
    stuck_after = 0;
    drift_ppm = 10_000;
    gst = None;
    topology = None;
    route = Routing.Router.Shortest;
    splits = 1;
    committee = None;
  }

let committee_to_string c =
  Printf.sprintf "%s:%d:%d:%d:%d:%d" c.c_family c.c_size c.c_f c.c_batch
    c.c_pipeline c.c_faulty

let committee_of_string s =
  let ints l = List.map int_of_string_opt l in
  let build family = function
    | [ Some size; Some f; Some batch; Some pipeline; Some faulty ] ->
        Ok
          {
            c_family = family;
            c_size = size;
            c_f = f;
            c_batch = batch;
            c_pipeline = pipeline;
            c_faulty = faulty;
          }
    | _ -> Error "committee wants integers: family:size:f:batch:pipeline[:faulty]"
  in
  match String.split_on_char ':' s with
  | family :: rest when List.length rest = 4 ->
      build family (ints rest @ [ Some 0 ])
  | family :: rest when List.length rest = 5 -> build family (ints rest)
  | _ ->
      Error
        (Printf.sprintf "unrecognised committee spec %S (want \
                         family:size:f:batch:pipeline[:faulty])" s)

let quorum_system c =
  let n = c.c_size and f = c.c_f in
  let qs =
    match c.c_family with
    | "majority" -> Ok (Quorum_system.majority ~n ~f ())
    | "weighted" -> Ok (Quorum_system.weighted ~weights:(Array.make n 1) ~f ())
    | "grid" ->
        let rec side s = if s * s >= n then s else side (s + 1) in
        let s = side 1 in
        if s * s <> n then
          Error
            (Printf.sprintf
               "committee grid size must be a perfect square (got %d)" n)
        else Ok (Quorum_system.grid ~rows:s ~cols:s ~f ())
    | fam ->
        Error
          (Printf.sprintf
             "committee family must be majority, weighted or grid (got %S)" fam)
  in
  Result.bind qs (fun qs ->
      Result.map_error
        (fun e -> "committee: " ^ e)
        (Result.map (fun () -> qs) (Quorum_system.validate qs)))

(* checked before [quorum_system] builds anything sized by [c_size] *)
let max_committee = 1024

let validate_committee c =
  let err fmt = Fmt.kstr Result.error fmt in
  if c.c_size < 1 then err "committee size must be >= 1"
  else if c.c_size > max_committee then
    err "committee size must be <= %d" max_committee
  else if c.c_f < 0 then err "committee f must be >= 0"
  else if c.c_f > c.c_size then err "committee f must not exceed its size"
  else if c.c_batch < 1 then err "committee batch must be >= 1"
  else if c.c_pipeline < 1 then err "committee pipeline must be >= 1"
  else if c.c_faulty < 0 || c.c_faulty >= c.c_size then
    err "committee faulty must be in [0, size)"
  else if c.c_faulty > c.c_f then
    err "committee faulty must not exceed the fault bound f"
  else Result.map ignore (quorum_system c)

let policy_name = function Reserve -> "reserve" | Optimistic -> "optimistic"

let policy_of_string = function
  | "reserve" -> Ok Reserve
  | "optimistic" -> Ok Optimistic
  | s -> Error (Printf.sprintf "unknown policy %S" s)

let arrival_to_string = function
  | Poisson { gap } -> Printf.sprintf "poisson:%d" gap
  | Closed { clients; think } -> Printf.sprintf "closed:%d:%d" clients think
  | Burst { size; every } -> Printf.sprintf "burst:%d:%d" size every
  | Ramp { gap_hi; gap_lo } -> Printf.sprintf "ramp:%d:%d" gap_hi gap_lo

let arrival_of_string s =
  match String.split_on_char ':' s with
  | [ "poisson"; g ] -> (
      match int_of_string_opt g with
      | Some gap when gap >= 1 -> Ok (Poisson { gap })
      | _ -> Error "poisson gap must be an integer >= 1")
  | [ "closed"; c; th ] -> (
      match (int_of_string_opt c, int_of_string_opt th) with
      | Some clients, Some think when clients >= 1 && think >= 0 ->
          Ok (Closed { clients; think })
      | _ -> Error "closed wants clients >= 1 and think >= 0")
  | [ "burst"; sz; ev ] -> (
      match (int_of_string_opt sz, int_of_string_opt ev) with
      | Some size, Some every when size >= 1 && every >= 1 ->
          Ok (Burst { size; every })
      | _ -> Error "burst wants size >= 1 and every >= 1")
  | [ "ramp"; hi; lo ] -> (
      match (int_of_string_opt hi, int_of_string_opt lo) with
      | Some gap_hi, Some gap_lo when gap_lo >= 1 && gap_hi >= gap_lo ->
          Ok (Ramp { gap_hi; gap_lo })
      | _ -> Error "ramp wants gap_hi >= gap_lo >= 1")
  | _ -> Error (Printf.sprintf "unrecognised arrival %S" s)

let mix_to_string mix =
  String.concat ","
    (List.map
       (fun (p, w) -> Printf.sprintf "%s:%d" (Protocols.Proto.name p) w)
       mix)

let mix_of_string s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match String.split_on_char ':' part with
        | [ name ] -> (
            match Protocols.Proto.of_string name with
            | Ok p -> go ((p, 1) :: acc) rest
            | Error e -> Error e)
        | [ name; w ] -> (
            match (Protocols.Proto.of_string name, int_of_string_opt w) with
            | Ok p, Some weight when weight >= 1 -> go ((p, weight) :: acc) rest
            | Ok _, _ -> Error "mix weights must be integers >= 1"
            | (Error _ as e), _ -> e)
        | _ -> Error (Printf.sprintf "bad mix entry %S" part))
  in
  match parts with [ "" ] -> Error "empty mix" | _ -> go [] parts

(* the longest path a topology= graph of at most 1000 nodes allows; a
   chain is built per payment, so a mistyped hop count must be refused
   before it is sized into memory *)
let max_hops = 999

let validate w =
  let err fmt = Fmt.kstr Result.error fmt in
  if w.payments < 1 then err "payments must be >= 1"
  else if w.hops < 1 then err "hops must be >= 1"
  else if w.hops > max_hops then err "hops must be <= %d" max_hops
  else if w.value < 1 then err "value must be >= 1"
  else if w.commission < 0 then err "commission must be >= 0"
  else if w.mix = [] then err "mix must name at least one protocol"
  else if List.exists (fun (_, weight) -> weight < 1) w.mix then
    err "mix weights must be >= 1"
  else if List.length (List.sort_uniq compare (List.map fst w.mix))
          <> List.length w.mix
  then err "mix names a protocol twice"
  else if w.cap < 0 then err "cap must be >= 0"
  else if w.liquidity < 0 then err "liquidity must be >= 0"
  else if w.patience < 1 then err "patience must be >= 1"
  else if w.stuck_after < 0 then err "stuck must be >= 0"
  else if w.drift_ppm < 0 then err "drift must be >= 0"
  else if
    w.policy = Optimistic
    && List.exists (fun (p, _) -> p = Sync || p = Naive) w.mix
  then
    err
      "optimistic policy is incompatible with sync/naive: their escrows \
       proceed past a failed deposit (use policy=reserve)"
  else if w.drift_ppm > 0 && List.mem_assoc Naive w.mix then
    err "naive in the mix requires drift=0 (it is only correct without drift)"
  else if w.splits < 1 then err "splits must be >= 1"
  else if List.mem_assoc Shared w.mix && w.committee = None then
    err "shared in the mix requires a committee= spec"
  else if w.committee <> None && not (List.mem_assoc Shared w.mix) then
    err "committee= is only meaningful with shared in the mix"
  else if
    match w.committee with
    | Some c -> Result.is_error (validate_committee c)
    | None -> false
  then Option.get (Option.map validate_committee w.committee)
  else if w.splits > 1 && w.topology = None then
    err "splits > 1 requires a topology= graph to split across"
  else if w.topology <> None && w.policy = Optimistic then
    err
      "graph routing requires policy=reserve: admission reserves each \
       split's legs against per-edge liquidity"
  else if w.topology <> None && w.liquidity <> 0 then
    err
      "liquidity is per-edge under topology= (set it in the topology spec, \
       0 = unbounded)"
  else
    match w.gst with
    | Some g when g < 0 -> err "gst must be >= 0"
    | _ -> Ok ()

let to_string w =
  let base =
    Printf.sprintf
      "payments=%d hops=%d value=%d commission=%d arrival=%s mix=%s policy=%s \
       cap=%d liquidity=%d patience=%d stuck=%d drift=%d gst=%s"
      w.payments w.hops w.value w.commission
      (arrival_to_string w.arrival)
      (mix_to_string w.mix) (policy_name w.policy) w.cap w.liquidity w.patience
      w.stuck_after w.drift_ppm
      (match w.gst with None -> "none" | Some g -> string_of_int g)
  in
  (* graph keys only when a topology is set, so linear workloads keep their
     pre-routing spec lines byte-for-byte; likewise committee= only when a
     shared committee is configured *)
  let base =
    match w.topology with
    | None -> base
    | Some t ->
        Printf.sprintf "%s topology=%s route=%s splits=%d" base
          (Routing.Topology.to_string t)
          (Routing.Router.strategy_name w.route)
          w.splits
  in
  match w.committee with
  | None -> base
  | Some c -> Printf.sprintf "%s committee=%s" base (committee_to_string c)

(* A spec line is space-separated key=value fields. [set] is the fold's
   step for one field, shared by spec lines and command-line flags. *)
let tokens s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun f -> f <> "")

let set w key v =
  let ( let* ) = Result.bind in
  let int_field set =
    match int_of_string_opt v with
    | Some n -> Ok (set n)
    | None -> Error (Printf.sprintf "%s wants an integer, got %S" key v)
  in
  (* name the offending key in sub-parser errors, so a bad value in a
     13-key spec line points at itself *)
  let keyed r = Result.map_error (fun e -> Printf.sprintf "%s: %s" key e) r in
  match key with
  | "payments" -> int_field (fun n -> { w with payments = n })
  | "hops" -> int_field (fun n -> { w with hops = n })
  | "value" -> int_field (fun n -> { w with value = n })
  | "commission" -> int_field (fun n -> { w with commission = n })
  | "cap" -> int_field (fun n -> { w with cap = n })
  | "liquidity" -> int_field (fun n -> { w with liquidity = n })
  | "patience" -> int_field (fun n -> { w with patience = n })
  | "stuck" -> int_field (fun n -> { w with stuck_after = n })
  | "drift" -> int_field (fun n -> { w with drift_ppm = n })
  | "arrival" ->
      let* a = keyed (arrival_of_string v) in
      Ok { w with arrival = a }
  | "mix" ->
      let* mix = keyed (mix_of_string v) in
      Ok { w with mix }
  | "policy" ->
      let* p = keyed (policy_of_string v) in
      Ok { w with policy = p }
  | "gst" ->
      if v = "none" then Ok { w with gst = None }
      else int_field (fun n -> { w with gst = Some n })
  | "topology" ->
      let* t = keyed (Routing.Topology.of_string v) in
      Ok { w with topology = Some t }
  | "route" ->
      let* r = keyed (Routing.Router.strategy_of_string v) in
      Ok { w with route = r }
  | "splits" -> int_field (fun n -> { w with splits = n })
  | "committee" ->
      let* c = keyed (committee_of_string v) in
      Ok { w with committee = Some c }
  | _ -> Error (Printf.sprintf "unknown workload key %S" key)

let fold w s =
  List.fold_left
    (fun acc field ->
      Result.bind acc (fun w ->
          match String.index_opt field '=' with
          | None -> Error (Printf.sprintf "expected key=value, got %S" field)
          | Some i ->
              set w (String.sub field 0 i)
                (String.sub field (i + 1) (String.length field - i - 1))))
    (Ok w) (tokens s)

let of_string s =
  let ( let* ) = Result.bind in
  let* w = fold (default ~payments:1) s in
  let* () = validate w in
  Ok w

let flags =
  [
    ("--payments", "payments"); ("--hops", "hops"); ("--value", "value");
    ("--commission", "commission"); ("--arrival", "arrival"); ("--mix", "mix");
    ("--policy", "policy"); ("--cap", "cap"); ("--liquidity", "liquidity");
    ("--topology", "topology"); ("--route", "route"); ("--splits", "splits");
    ("--patience", "patience"); ("--stuck-after", "stuck"); ("--drift", "drift");
    ("--gst", "gst");
  ]

let of_command_line ~base ?spec given =
  let ( let* ) = Result.bind in
  let origin o r = Result.map_error (Printf.sprintf "bad %s: %s" o) r in
  let* w = origin "base line" (fold (default ~payments:1) base) in
  let* w =
    match spec with None -> Ok w | Some s -> origin "--spec" (fold w s)
  in
  (* a flag's value is one field: it is never split into further keys *)
  let* w =
    List.fold_left
      (fun acc (flag, v) ->
        let* w = acc in
        origin flag
          (match List.assoc_opt flag flags with
          | Some key -> set w key v
          | None -> Error "not a workload flag"))
      (Ok w) given
  in
  let* () = origin "workload" (validate w) in
  Ok w

(* Both streams below are persistent: each step draws from a copy of the
   generator it was handed, so a sequence can be traversed again from any
   node and yields the same values, while holding O(1) state. *)

let mix_seq w ~seed =
  let total = List.fold_left (fun acc (_, weight) -> acc + weight) 0 w.mix in
  let rec pick r acc = function
    | [] -> assert false
    | (p, weight) :: rest ->
        if r < acc + weight then p else pick r (acc + weight) rest
  in
  let rec from g k () =
    if k = w.payments then Seq.Nil
    else
      let g = Sim.Rng.copy g in
      let p = pick (Sim.Rng.int g total) 0 w.mix in
      Seq.Cons (p, from g (k + 1))
  in
  from (Sim.Rng.create ~seed:(seed + 5)) 0

let assign_mix w ~seed = Array.of_seq (mix_seq w ~seed)

let arrival_seq w ~seed =
  (* tick after [t] for payment [k], drawing from [g] when random *)
  let step g t k =
    match w.arrival with
    | Closed _ -> assert false
    | Poisson { gap } -> t + 1 + Sim.Rng.exponential_ticks g ~mean:gap
    | Burst { size; every } -> 1 + (k / size * every)
    | Ramp { gap_hi; gap_lo } ->
        let span = Stdlib.max 1 (w.payments - 1) in
        let mean = gap_hi - ((gap_hi - gap_lo) * k / span) in
        t + 1 + Sim.Rng.exponential_ticks g ~mean
  in
  let rec from g t k () =
    if k = w.payments then Seq.Nil
    else
      let g = Sim.Rng.copy g in
      let t = step g t k in
      Seq.Cons (t, from g t (k + 1))
  in
  match w.arrival with
  | Closed _ -> None
  | Poisson _ | Burst _ | Ramp _ ->
      Some (from (Sim.Rng.create ~seed:(seed + 3)) 0 0)

let pp ppf w = Fmt.string ppf (to_string w)
