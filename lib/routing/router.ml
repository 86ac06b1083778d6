type strategy = Shortest | Round_robin

let strategy_name = function
  | Shortest -> "shortest"
  | Round_robin -> "round-robin"

let strategy_of_string = function
  | "shortest" -> Ok Shortest
  | "round-robin" | "rr" -> Ok Round_robin
  | s -> Error (Printf.sprintf "unknown route strategy %S" s)

type split = { path : int list; value : int }

(* A searched path, kept both ways: the edge list a split hands out and
   the array the capacity scans walk. *)
type path = { edges : int array; list : int list }

let no_path = { edges = [||]; list = [] }

(* The memo of [search], keyed by the usable-edge set as a bitmask. *)
module Memo = Hashtbl.Make (struct
  type t = Bytes.t

  let equal = Bytes.equal
  let hash = Hashtbl.hash
end)

(* Searches kept per router. A miss past this many distinct usable sets
   clears the table: the search is a pure function of the topology and
   the set, so dropping entries can only cost a re-search. *)
let memo_cap = 1024

type t = {
  topo : Topology.t;
  strat : strategy;
  mutable cursor : int;  (** Round_robin: which candidate path leads *)
  memo : path option Memo.t;
  (* scratch for one call, reused across calls *)
  room : int array;  (** per edge: the liquidity [avail] reported *)
  removed : Bytes.t;  (** per edge: dropped from this call's search *)
  mask : Bytes.t;  (** the usable set, one bit per edge *)
  mutable found : path array;  (** candidates, cost order *)
  mutable caps : int array;  (** their value capacities *)
  mutable given : int array;  (** value dealt to each candidate *)
}

let create ?(strategy = Shortest) (topo : Topology.t) =
  let nedges = Array.length topo.Topology.edges in
  {
    topo;
    strat = strategy;
    cursor = 0;
    memo = Memo.create 16;
    room = Array.make nedges 0;
    removed = Bytes.make nedges '\000';
    mask = Bytes.make ((nedges + 7) / 8) '\000';
    found = [||];
    caps = [||];
    given = [||];
  }

let strategy t = t.strat

let path_nodes (topo : Topology.t) path =
  match path with
  | [] -> [ 0 ]
  | first :: _ ->
      topo.Topology.edges.(first).Topology.src
      :: List.map (fun i -> topo.Topology.edges.(i).Topology.dst) path

let leg_amounts (topo : Topology.t) ~path ~value =
  let n = List.length path in
  let amounts = Array.make n 0 in
  List.iteri
    (fun i e -> amounts.(i) <- topo.Topology.edges.(e).Topology.commission)
    path;
  (* leg i pays the value plus the commissions of every edge after i *)
  let suffix = ref 0 in
  for i = n - 1 downto 0 do
    let commission = amounts.(i) in
    amounts.(i) <- value + !suffix;
    suffix := !suffix + commission
  done;
  amounts

(* Largest value [edges] carries when edge [e] holds [room.(e)]. *)
let capacity (topo : Topology.t) room edges =
  let n = Array.length edges in
  if n = 0 then 0
  else begin
    let cap = ref Topology.unbounded in
    let suffix = ref 0 in
    for i = n - 1 downto 0 do
      let left = room.(edges.(i)) - !suffix in
      if left < !cap then cap := left;
      suffix := !suffix + topo.Topology.edges.(edges.(i)).Topology.commission
    done;
    !cap
  end

let path_capacity (topo : Topology.t) ~avail path =
  let edges = Array.of_list path in
  let room = Array.make (Array.length topo.Topology.edges) 0 in
  Array.iter (fun e -> room.(e) <- avail e) edges;
  capacity topo room edges

(* Cheapest usable source->sink path: total commission, then hop count,
   then lexicographic node sequence — a total order, so the choice is
   deterministic. Label-correcting search; optimal labels are simple
   paths (a cycle only adds hops and non-negative commission), so it
   terminates. *)
let search (topo : Topology.t) ~usable =
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
  | Some (_, _, _, es) ->
      let list = List.rev es in
      Some { edges = Array.of_list list; list }

let usable t i = Bytes.get t.removed i = '\000' && t.room.(i) >= 1

let plain_search t = search t.topo ~usable:(usable t)

(* [search] through the memo. A hit allocates nothing: the usable set is
   written into the scratch mask, and only a miss copies it as a key. *)
let memo_search t =
  let mask = t.mask in
  Bytes.fill mask 0 (Bytes.length mask) '\000';
  for i = 0 to Bytes.length t.removed - 1 do
    if usable t i then begin
      let b = i lsr 3 in
      Bytes.set mask b
        (Char.unsafe_chr (Char.code (Bytes.get mask b) lor (1 lsl (i land 7))))
    end
  done;
  match Memo.find t.memo mask with
  | found -> found
  | exception Not_found ->
      let found = plain_search t in
      if Memo.length t.memo >= memo_cap then Memo.reset t.memo;
      Memo.add t.memo (Bytes.copy mask) found;
      found

(* Candidate edge-disjoint paths under the liquidity in [t.room], cost
   order, into [t.found] and [t.caps]; returns how many. A cheapest path
   whose capacity is non-positive (commissions eat the liquidity) has its
   bottleneck edge dropped and the search retried, so a clogged cheap
   path never hides a usable pricier one. *)
let candidates t ~find ~max =
  let nedges = Array.length t.room in
  if Array.length t.found < max then begin
    t.found <- Array.make max no_path;
    t.caps <- Array.make max 0;
    t.given <- Array.make max 0
  end;
  Bytes.fill t.removed 0 nedges '\000';
  let found = ref 0 in
  let guard = ref (nedges + max + 2) in
  let continue = ref true in
  while !continue && !found < max && !guard > 0 do
    decr guard;
    match find t with
    | None -> continue := false
    | Some path ->
        let edges = path.edges in
        let cap = capacity t.topo t.room edges in
        if cap >= 1 then begin
          t.found.(!found) <- path;
          t.caps.(!found) <- cap;
          incr found;
          for i = 0 to Array.length edges - 1 do
            Bytes.set t.removed edges.(i) '\001'
          done
        end
        else begin
          (* drop the tightest leg (first minimum) and retry *)
          let worst = ref 0 and worst_room = ref max_int in
          let suffix = ref 0 in
          for i = Array.length edges - 1 downto 0 do
            let room = t.room.(edges.(i)) - !suffix in
            if room <= !worst_room then begin
              worst_room := room;
              worst := edges.(i)
            end;
            suffix :=
              !suffix + t.topo.Topology.edges.(edges.(i)).Topology.commission
          done;
          Bytes.set t.removed !worst '\001'
        end
  done;
  !found

let fill_room t avail =
  for i = 0 to Array.length t.room - 1 do
    t.room.(i) <- avail i
  done

let paths topo ?avail ~max () =
  let t = create topo in
  (match avail with
  | Some avail -> fill_room t avail
  | None ->
      fill_room t (fun i -> Topology.capacity topo.Topology.edges.(i)));
  List.init (candidates t ~find:plain_search ~max) (fun i -> t.found.(i).list)

(* The splits of the dealt candidates [first, first + 1, ...] (mod [n])
   that carry value, in that order. *)
let dealt t ~n ~first =
  let splits = ref [] in
  for j = n - 1 downto 0 do
    let i = (first + j) mod n in
    if t.given.(i) > 0 then
      splits := { path = t.found.(i).list; value = t.given.(i) } :: !splits
  done;
  !splits

type refusal = { paths : int; carried : int; wanted : int }

let attempt t ~avail ~value ~max_splits =
  if value < 1 then invalid_arg "Router.route: value must be positive";
  if max_splits < 1 then invalid_arg "Router.route: max_splits must be >= 1";
  fill_room t avail;
  let n = candidates t ~find:memo_search ~max:max_splits in
  let total_cap = ref 0 in
  for i = 0 to n - 1 do
    total_cap := !total_cap + t.caps.(i)
  done;
  if !total_cap < value then
    Error { paths = n; carried = !total_cap; wanted = value }
  else begin
    let given = t.given in
    Array.fill given 0 n 0;
    match t.strat with
    | Shortest ->
        (* greedy: fill the cheapest path first *)
        let remaining = ref value in
        for i = 0 to n - 1 do
          let v = min t.caps.(i) !remaining in
          given.(i) <- v;
          remaining := !remaining - v
        done;
        Ok (dealt t ~n ~first:0)
    | Round_robin ->
        (* deal rotating quanta so every path carries a fair share, the
           path at the cursor leading; [caps] turns into what is spare *)
        let first = t.cursor mod n in
        let spare = t.caps in
        let remaining = ref value in
        while !remaining > 0 do
          let live = ref 0 in
          for i = 0 to n - 1 do
            if spare.(i) > 0 then incr live
          done;
          let quantum = Stdlib.max 1 (!remaining / Stdlib.max 1 !live) in
          for j = 0 to n - 1 do
            let i = (first + j) mod n in
            if !remaining > 0 && spare.(i) > 0 then begin
              let g = Stdlib.min spare.(i) (Stdlib.min !remaining quantum) in
              given.(i) <- given.(i) + g;
              spare.(i) <- spare.(i) - g;
              remaining := !remaining - g
            end
          done
        done;
        t.cursor <- t.cursor + 1;
        Ok (dealt t ~n ~first)
  end

(* the refusal rendered, for callers that print it *)
let route t ~avail ~value ~max_splits =
  match attempt t ~avail ~value ~max_splits with
  | Ok _ as ok -> ok
  | Error r ->
      Error
        (Printf.sprintf "no route: %d disjoint path(s) carry at most %d of %d"
           r.paths r.carried r.wanted)

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
