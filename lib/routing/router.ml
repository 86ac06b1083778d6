type strategy = Shortest | Round_robin

let strategy_name = function
  | Shortest -> "shortest"
  | Round_robin -> "round-robin"

let strategy_of_string = function
  | "shortest" -> Ok Shortest
  | "round-robin" | "rr" -> Ok Round_robin
  | s -> Error (Printf.sprintf "unknown route strategy %S" s)

type split = { path : int list; value : int }

type t = {
  topo : Topology.t;
  strat : strategy;
  mutable cursor : int;  (** Round_robin: which candidate path leads *)
}

let create ?(strategy = Shortest) topo = { topo; strat = strategy; cursor = 0 }
let strategy t = t.strat

let path_nodes (topo : Topology.t) path =
  match path with
  | [] -> [ 0 ]
  | first :: _ ->
      topo.Topology.edges.(first).Topology.src
      :: List.map (fun i -> topo.Topology.edges.(i).Topology.dst) path

let leg_amounts (topo : Topology.t) ~path ~value =
  let arr = Array.of_list path in
  let n = Array.length arr in
  let amounts = Array.make (max n 1) 0 in
  (* leg i pays the value plus the commissions of every edge after i *)
  let suffix = ref 0 in
  for i = n - 1 downto 0 do
    amounts.(i) <- value + !suffix;
    suffix := !suffix + topo.Topology.edges.(arr.(i)).Topology.commission
  done;
  if n = 0 then [||] else amounts

let path_capacity (topo : Topology.t) ~avail path =
  let arr = Array.of_list path in
  let n = Array.length arr in
  if n = 0 then 0
  else begin
    let cap = ref Topology.unbounded in
    let suffix = ref 0 in
    for i = n - 1 downto 0 do
      let room = avail arr.(i) - !suffix in
      if room < !cap then cap := room;
      suffix := !suffix + topo.Topology.edges.(arr.(i)).Topology.commission
    done;
    !cap
  end

(* Cheapest usable source->sink path: total commission, then hop count,
   then lexicographic node sequence — a total order, so the choice is
   deterministic. Label-correcting search; optimal labels are simple
   paths (a cycle only adds hops and non-negative commission), so it
   terminates. *)
let best_path (topo : Topology.t) ~usable =
  let n = topo.Topology.nodes in
  let label = Array.make n None in
  (* (commission, hops, nodes fwd, edges rev) *)
  label.(0) <- Some (0, 0, [ 0 ], []);
  let better (c1, h1, ns1, _) (c2, h2, ns2, _) =
    c1 < c2 || (c1 = c2 && (h1 < h2 || (h1 = h2 && compare ns1 ns2 < 0)))
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    incr rounds;
    Array.iteri
      (fun i (e : Topology.edge) ->
        if usable i then
          match label.(e.Topology.src) with
          | None -> ()
          | Some (c, h, ns, es) ->
              let cand =
                (c + e.Topology.commission, h + 1, ns @ [ e.Topology.dst ],
                 i :: es)
              in
              let take =
                match label.(e.Topology.dst) with
                | None -> true
                | Some cur -> better cand cur
              in
              if take then begin
                label.(e.Topology.dst) <- Some cand;
                changed := true
              end)
      topo.Topology.edges
  done;
  match label.(Topology.sink topo) with
  | None -> None
  | Some (_, _, _, es) -> Some (List.rev es)

(* Candidate edge-disjoint paths with their value capacities, cost order.
   A cheapest path whose capacity is non-positive (commissions eat the
   liquidity) has its bottleneck edge dropped and the search retried, so
   a clogged cheap path never hides a usable pricier one. *)
let candidates (topo : Topology.t) ~avail ~max =
  let nedges = Array.length topo.Topology.edges in
  let removed = Array.make nedges false in
  let out = ref [] in
  let found = ref 0 in
  let guard = ref (nedges + max + 2) in
  let continue = ref true in
  while !continue && !found < max && !guard > 0 do
    decr guard;
    let usable i = (not removed.(i)) && avail i >= 1 in
    match best_path topo ~usable with
    | None -> continue := false
    | Some path ->
        let cap = path_capacity topo ~avail path in
        if cap >= 1 then begin
          out := (path, cap) :: !out;
          incr found;
          List.iter (fun i -> removed.(i) <- true) path
        end
        else begin
          (* drop the tightest leg (first minimum) and retry *)
          let arr = Array.of_list path in
          let n = Array.length arr in
          let worst = ref 0 and worst_room = ref max_int in
          let suffix = ref 0 in
          for i = n - 1 downto 0 do
            let room = avail arr.(i) - !suffix in
            if room <= !worst_room then begin
              worst_room := room;
              worst := arr.(i)
            end;
            suffix :=
              !suffix + topo.Topology.edges.(arr.(i)).Topology.commission
          done;
          removed.(!worst) <- true
        end
  done;
  List.rev !out

let paths topo ?avail ~max () =
  let avail =
    match avail with
    | Some f -> f
    | None -> fun i -> Topology.capacity topo.Topology.edges.(i)
  in
  List.map fst (candidates topo ~avail ~max)

let rotate n l =
  if l = [] then l
  else
    let n = n mod List.length l in
    let rec go k acc = function
      | rest when k = 0 -> rest @ List.rev acc
      | x :: rest -> go (k - 1) (x :: acc) rest
      | [] -> List.rev acc
    in
    go n [] l

let route t ~avail ~value ~max_splits =
  if value < 1 then invalid_arg "Router.route: value must be positive";
  if max_splits < 1 then invalid_arg "Router.route: max_splits must be >= 1";
  let cands = candidates t.topo ~avail ~max:max_splits in
  let total_cap = List.fold_left (fun acc (_, c) -> acc + c) 0 cands in
  if total_cap < value then
    Error
      (Printf.sprintf
         "no route: %d disjoint path(s) carry at most %d of %d"
         (List.length cands) total_cap value)
  else begin
    let splits =
      match t.strat with
      | Shortest ->
          (* greedy: fill the cheapest path first *)
          let remaining = ref value in
          List.filter_map
            (fun (path, cap) ->
              if !remaining = 0 then None
              else begin
                let v = min cap !remaining in
                remaining := !remaining - v;
                Some { path; value = v }
              end)
            cands
      | Round_robin ->
          (* deal rotating quanta so every path carries a fair share *)
          let cands = Array.of_list (rotate t.cursor cands) in
          let n = Array.length cands in
          let spare = Array.map snd cands in
          let given = Array.make n 0 in
          let remaining = ref value in
          while !remaining > 0 do
            let live = ref 0 in
            Array.iter (fun s -> if s > 0 then incr live) spare;
            let quantum = Stdlib.max 1 (!remaining / Stdlib.max 1 !live) in
            for i = 0 to n - 1 do
              if !remaining > 0 && spare.(i) > 0 then begin
                let g = Stdlib.min spare.(i) (Stdlib.min !remaining quantum) in
                given.(i) <- given.(i) + g;
                spare.(i) <- spare.(i) - g;
                remaining := !remaining - g
              end
            done
          done;
          t.cursor <- t.cursor + 1;
          Array.to_list
            (Array.mapi (fun i (path, _) -> { path; value = given.(i) }) cands)
          |> List.filter (fun s -> s.value > 0)
    in
    Ok splits
  end

let max_flow (topo : Topology.t) ?avail () =
  let cap_of =
    match avail with
    | Some f -> f
    | None -> fun i -> Topology.capacity topo.Topology.edges.(i)
  in
  let nedges = Array.length topo.Topology.edges in
  let residual = Array.init nedges cap_of in
  let back = Array.make nedges 0 in
  let src = Topology.source topo and dst = Topology.sink topo in
  let flow = ref 0 in
  let continue = ref true in
  while !continue && !flow < Topology.unbounded do
    (* BFS over residual capacities, edges in index order for determinism *)
    let pred = Array.make topo.Topology.nodes None in
    let q = Queue.create () in
    Queue.add src q;
    let seen = Array.make topo.Topology.nodes false in
    seen.(src) <- true;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Array.iteri
        (fun i (e : Topology.edge) ->
          let try_step v via_fwd =
            if not seen.(v) then begin
              seen.(v) <- true;
              pred.(v) <- Some (i, via_fwd);
              Queue.add v q
            end
          in
          if e.Topology.src = u && residual.(i) > 0 then
            try_step e.Topology.dst true
          else if e.Topology.dst = u && back.(i) > 0 then
            try_step e.Topology.src false)
        topo.Topology.edges
    done;
    match pred.(dst) with
    | None -> continue := false
    | Some _ ->
        (* walk back to find the bottleneck, then apply it *)
        let aug = ref Topology.unbounded in
        let v = ref dst in
        while !v <> src do
          match pred.(!v) with
          | None -> assert false
          | Some (i, fwd) ->
              let r = if fwd then residual.(i) else back.(i) in
              if r < !aug then aug := r;
              v :=
                (if fwd then topo.Topology.edges.(i).Topology.src
                 else topo.Topology.edges.(i).Topology.dst)
        done;
        let v = ref dst in
        while !v <> src do
          match pred.(!v) with
          | None -> assert false
          | Some (i, fwd) ->
              if fwd then begin
                residual.(i) <- residual.(i) - !aug;
                back.(i) <- back.(i) + !aug;
                v := topo.Topology.edges.(i).Topology.src
              end
              else begin
                back.(i) <- back.(i) - !aug;
                residual.(i) <- residual.(i) + !aug;
                v := topo.Topology.edges.(i).Topology.dst
              end
        done;
        flow := !flow + !aug
  done;
  Stdlib.min !flow Topology.unbounded
