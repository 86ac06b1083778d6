type move = { node : int; from_edge : int; to_edge : int; amount : int }
type plan = { moves : move list; batches : move list list; volume : int }

let chunk n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let plan ?(band_pct = 25) ?(batch = 4) (topo : Topology.t) =
  let moves = ref [] in
  for u = 0 to topo.Topology.nodes - 1 do
    let out =
      List.filter
        (fun (_, (e : Topology.edge)) -> e.Topology.liquidity > 0)
        (Topology.out_edges topo u)
    in
    if List.length out >= 2 then begin
      let total =
        List.fold_left (fun acc (_, e) -> acc + e.Topology.liquidity) 0 out
      in
      let mean = total / List.length out in
      let band = mean * band_pct / 100 in
      let level = Array.of_list (List.map (fun (i, e) -> (i, e.Topology.liquidity)) out) in
      (* drain the richest edge into the poorest until both sit inside
         the band; first-index tie-breaks keep the plan deterministic *)
      let continue = ref true in
      while !continue do
        let rich = ref (-1) and poor = ref (-1) in
        Array.iteri
          (fun j (_, l) ->
            if l > mean + band && (!rich < 0 || l > snd level.(!rich)) then
              rich := j;
            if l < mean - band && (!poor < 0 || l < snd level.(!poor)) then
              poor := j)
          level;
        if !rich < 0 || !poor < 0 then continue := false
        else begin
          let ri, rl = level.(!rich) and pi, pl = level.(!poor) in
          let amount = Stdlib.min (rl - mean) (mean - pl) in
          if amount <= 0 then continue := false
          else begin
            level.(!rich) <- (ri, rl - amount);
            level.(!poor) <- (pi, pl + amount);
            moves := { node = u; from_edge = ri; to_edge = pi; amount } :: !moves
          end
        end
      done
    end
  done;
  let moves = List.rev !moves in
  {
    moves;
    batches = chunk (Stdlib.max 1 batch) moves;
    volume = List.fold_left (fun acc m -> acc + m.amount) 0 moves;
  }

let move_to_string m =
  Printf.sprintf "node %d: %d -> %d amount %d" m.node m.from_edge m.to_edge
    m.amount

let pp ppf p =
  if p.moves = [] then Fmt.pf ppf "balanced: no moves proposed"
  else begin
    Fmt.pf ppf "@[<v>rebalance: %d move(s), volume %d, %d batch(es)@,"
      (List.length p.moves) p.volume (List.length p.batches);
    List.iteri
      (fun bi b ->
        Fmt.pf ppf "batch %d:@," bi;
        List.iter (fun m -> Fmt.pf ppf "  %s@," (move_to_string m)) b)
      p.batches;
    Fmt.pf ppf "@]"
  end
