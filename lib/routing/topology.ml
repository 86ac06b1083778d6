type edge = { src : int; dst : int; liquidity : int; commission : int }
type t = { nodes : int; edges : edge array }

let source _ = 0
let sink t = t.nodes - 1
let unbounded = max_int / 8
let capacity e = if e.liquidity = 0 then unbounded else e.liquidity

let compare_edge a b =
  match compare a.src b.src with 0 -> compare a.dst b.dst | c -> c

let normalize t =
  let edges = Array.copy t.edges in
  Array.sort compare_edge edges;
  { t with edges }

let out_edges t u =
  let acc = ref [] in
  Array.iteri (fun i e -> if e.src = u then acc := (i, e) :: !acc) t.edges;
  List.rev !acc

let reachable t =
  (* forward BFS from the source over the edge set *)
  let seen = Array.make t.nodes false in
  let q = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun e ->
        if e.src = u && not seen.(e.dst) then begin
          seen.(e.dst) <- true;
          Queue.add e.dst q
        end)
      t.edges
  done;
  seen

let validate t =
  let err fmt = Fmt.kstr Result.error fmt in
  if t.nodes < 2 then err "topology wants at least 2 nodes"
  else if Array.length t.edges = 0 then err "topology wants at least one edge"
  else begin
    let bad = ref None in
    Array.iter
      (fun e ->
        if !bad = None then
          if e.src < 0 || e.src >= t.nodes || e.dst < 0 || e.dst >= t.nodes
          then bad := Some (Printf.sprintf "edge %d>%d out of range" e.src e.dst)
          else if e.src = e.dst then
            bad := Some (Printf.sprintf "self-loop %d>%d" e.src e.dst)
          else if e.liquidity < 0 then
            bad := Some (Printf.sprintf "edge %d>%d: negative liquidity" e.src e.dst)
          else if e.commission < 0 then
            bad := Some (Printf.sprintf "edge %d>%d: negative commission" e.src e.dst))
      t.edges;
    match !bad with
    | Some m -> Error m
    | None ->
        let dup = ref None in
        let seen = Hashtbl.create 16 in
        Array.iter
          (fun e ->
            if Hashtbl.mem seen (e.src, e.dst) then
              dup := Some (Printf.sprintf "duplicate edge %d>%d" e.src e.dst)
            else Hashtbl.add seen (e.src, e.dst) ())
          t.edges;
        (match !dup with
        | Some m -> Error m
        | None ->
            if not (reachable t).(sink t) then
              err "sink %d is unreachable from source 0" (sink t)
            else Ok ())
  end

let to_string t =
  let t = normalize t in
  let b = Buffer.create 64 in
  Printf.bprintf b "graph:%d;" t.nodes;
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%d>%d:%d:%d" e.src e.dst e.liquidity e.commission)
    t.edges;
  Buffer.contents b

(* --------------------------- generator families --------------------------- *)

let linear ~hops ~liquidity ~commission =
  {
    nodes = hops + 1;
    edges =
      Array.init hops (fun i ->
          { src = i; dst = i + 1; liquidity; commission });
  }

(* Hub node is 1 (the source stays 0 and the sink stays the last node, by
   the global convention); every other node is a spoke. *)
let hub ~spokes ~liquidity ~commission =
  let nodes = spokes + 1 in
  let spoke_list =
    List.filter (fun s -> s <> 1) (List.init nodes (fun i -> i))
  in
  let edges =
    List.concat_map
      (fun s ->
        [
          { src = s; dst = 1; liquidity; commission };
          { src = 1; dst = s; liquidity; commission };
        ])
      spoke_list
  in
  { nodes; edges = Array.of_list edges }

let erdos_renyi ~nodes ~extra ~seed ~liquidity ~commission =
  let rng = Sim.Rng.create ~seed in
  let present = Hashtbl.create 16 in
  let edges = ref [] in
  let add src dst =
    if src <> dst && not (Hashtbl.mem present (src, dst)) then begin
      Hashtbl.add present (src, dst) ();
      edges := { src; dst; liquidity; commission } :: !edges;
      true
    end
    else false
  in
  (* chain backbone guarantees the sink stays reachable *)
  for i = 0 to nodes - 2 do
    ignore (add i (i + 1))
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  let max_extra = (nodes * (nodes - 1)) - (nodes - 1) in
  let want = min extra max_extra in
  while !added < want && !attempts < 100 * (want + 1) do
    incr attempts;
    let u = Sim.Rng.int rng nodes in
    let v = Sim.Rng.int rng nodes in
    if add u v then incr added
  done;
  { nodes; edges = Array.of_list !edges }

let scale_free ~nodes ~degree ~seed ~liquidity ~commission =
  let rng = Sim.Rng.create ~seed in
  let present = Hashtbl.create 16 in
  let deg = Array.make nodes 0 in
  let edges = ref [] in
  let add src dst =
    if src <> dst && not (Hashtbl.mem present (src, dst)) then begin
      Hashtbl.add present (src, dst) ();
      edges := { src; dst; liquidity; commission } :: !edges;
      deg.(src) <- deg.(src) + 1;
      deg.(dst) <- deg.(dst) + 1
    end
  in
  for j = 1 to nodes - 1 do
    let targets = min degree j in
    let chosen = ref [] in
    let tries = ref 0 in
    while List.length !chosen < targets && !tries < 50 * (targets + 1) do
      incr tries;
      (* preferential attachment: draw earlier nodes weighted by degree+1 *)
      let total = ref 0 in
      for u = 0 to j - 1 do
        if not (List.mem u !chosen) then total := !total + deg.(u) + 1
      done;
      if !total > 0 then begin
        let r = Sim.Rng.int rng !total in
        let acc = ref 0 and pick = ref (-1) in
        for u = 0 to j - 1 do
          if !pick < 0 && not (List.mem u !chosen) then begin
            acc := !acc + deg.(u) + 1;
            if r < !acc then pick := u
          end
        done;
        if !pick >= 0 then chosen := !pick :: !chosen
      end
    done;
    List.iter
      (fun u ->
        add u j;
        add j u)
      !chosen
  done;
  { nodes; edges = Array.of_list !edges }

(* -------------------------------- parsing -------------------------------- *)

(* Size bounds on what a spec line may ask for, checked before anything is
   built: a parser must answer a mistyped digit with an error, not with a
   graph that fills memory or a generator that never returns. *)
let max_nodes = 1000
let max_generated_edges = 32768

(* [n + extra] nodes, written so that a huge [n] cannot wrap around *)
let check_nodes ?(extra = 0) what n =
  if n > max_nodes - extra then
    Error (Printf.sprintf "%s wants at most %d nodes" what max_nodes)
  else Ok ()

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s wants an integer, got %S" what s)

let parse_liq_comm what rest =
  let ( let* ) = Result.bind in
  match rest with
  | [] -> Ok (0, 10)
  | [ l ] ->
      let* l = parse_int (what ^ " liquidity") l in
      Ok (l, 10)
  | [ l; c ] ->
      let* l = parse_int (what ^ " liquidity") l in
      let* c = parse_int (what ^ " commission") c in
      Ok (l, c)
  | _ -> Error (Printf.sprintf "too many %s parameters" what)

let parse_edge s =
  let ( let* ) = Result.bind in
  match String.index_opt s '>' with
  | None -> Error (Printf.sprintf "edge %S wants U>V:LIQ:COMM" s)
  | Some i -> (
      let u = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.split_on_char ':' rest with
      | v :: tail when List.length tail <= 2 ->
          let* src = parse_int "edge source" u in
          let* dst = parse_int "edge target" v in
          let* liquidity, commission = parse_liq_comm "edge" tail in
          Ok { src; dst; liquidity; commission }
      | _ -> Error (Printf.sprintf "edge %S wants U>V:LIQ:COMM" s))

let of_string s =
  let ( let* ) = Result.bind in
  let* t =
    match String.index_opt s ':' with
    | None -> Error (Printf.sprintf "unrecognised topology %S" s)
    | Some i -> (
        let kind = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match kind with
        | "graph" -> (
            match String.index_opt rest ';' with
            | None -> Error "graph wants NODES;EDGE,EDGE,..."
            | Some j ->
                let* nodes = parse_int "graph nodes" (String.sub rest 0 j) in
                let* () = check_nodes "graph" nodes in
                let edges_s =
                  String.sub rest (j + 1) (String.length rest - j - 1)
                in
                let* edges =
                  List.fold_left
                    (fun acc e ->
                      let* acc = acc in
                      let* e = parse_edge e in
                      Ok (e :: acc))
                    (Ok [])
                    (String.split_on_char ',' edges_s
                    |> List.filter (fun e -> e <> ""))
                in
                Ok { nodes; edges = Array.of_list (List.rev edges) })
        | "linear" -> (
            match String.split_on_char ':' rest with
            | h :: tail when List.length tail <= 2 ->
                let* hops = parse_int "linear hops" h in
                if hops < 1 then Error "linear wants hops >= 1"
                else
                  let* () = check_nodes "linear" ~extra:1 hops in
                  let* liquidity, commission = parse_liq_comm "linear" tail in
                  Ok (linear ~hops ~liquidity ~commission)
            | _ -> Error "linear wants HOPS[:LIQ[:COMM]]")
        | "hub" -> (
            match String.split_on_char ':' rest with
            | k :: tail when List.length tail <= 2 ->
                let* spokes = parse_int "hub spokes" k in
                if spokes < 2 then Error "hub wants spokes >= 2"
                else
                  let* () = check_nodes "hub" ~extra:1 spokes in
                  let* liquidity, commission = parse_liq_comm "hub" tail in
                  Ok (hub ~spokes ~liquidity ~commission)
            | _ -> Error "hub wants SPOKES[:LIQ[:COMM]]")
        | "er" -> (
            match String.split_on_char ':' rest with
            | n :: m :: sd :: tail when List.length tail <= 2 ->
                let* nodes = parse_int "er nodes" n in
                let* extra = parse_int "er extra edges" m in
                let* seed = parse_int "er seed" sd in
                if nodes < 2 then Error "er wants nodes >= 2"
                else if extra < 0 then Error "er wants extra >= 0"
                else if extra > max_generated_edges then
                  Error
                    (Printf.sprintf "er wants extra <= %d" max_generated_edges)
                else
                  let* () = check_nodes "er" nodes in
                  let* liquidity, commission = parse_liq_comm "er" tail in
                  Ok (erdos_renyi ~nodes ~extra ~seed ~liquidity ~commission)
            | _ -> Error "er wants NODES:EXTRA:SEED[:LIQ[:COMM]]")
        | "sf" -> (
            match String.split_on_char ':' rest with
            | n :: d :: sd :: tail when List.length tail <= 2 ->
                let* nodes = parse_int "sf nodes" n in
                let* degree = parse_int "sf degree" d in
                let* seed = parse_int "sf seed" sd in
                if nodes < 2 then Error "sf wants nodes >= 2"
                else if degree < 1 then Error "sf wants degree >= 1"
                else
                  let* () = check_nodes "sf" nodes in
                  if degree > max_generated_edges / (2 * nodes) then
                    Error
                      (Printf.sprintf "sf wants 2 * nodes * degree <= %d"
                         max_generated_edges)
                  else
                    let* liquidity, commission = parse_liq_comm "sf" tail in
                    Ok (scale_free ~nodes ~degree ~seed ~liquidity ~commission)
            | _ -> Error "sf wants NODES:DEG:SEED[:LIQ[:COMM]]")
        | k -> Error (Printf.sprintf "unknown topology family %S" k))
  in
  let t = normalize t in
  let* () = validate t in
  Ok t

let liquidity_histogram t =
  let buckets = Hashtbl.create 8 in
  let bump key = Hashtbl.replace buckets key (1 + try Hashtbl.find buckets key with Not_found -> 0) in
  Array.iter
    (fun e ->
      if e.liquidity = 0 then bump (-1)
      else begin
        let lo = ref 1 in
        while e.liquidity >= !lo * 10 do
          lo := !lo * 10
        done;
        bump !lo
      end)
    t.edges;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) buckets [] in
  List.map
    (fun k ->
      let label =
        if k = -1 then "unbounded"
        else Printf.sprintf "%d-%d" k ((k * 10) - 1)
      in
      (label, Hashtbl.find buckets k))
    (List.sort compare keys)

let total_commission t =
  Array.fold_left (fun acc e -> acc + e.commission) 0 t.edges

let pp ppf t = Fmt.string ppf (to_string t)
