module Asset = Ledger.Asset

type party = int
type arc = { from_ : party; to_ : party; asset : Asset.t }
type t = { parties : int; arc_list : arc list }

let make ~parties ~transfers =
  if parties < 1 then invalid_arg "Deal.make: need at least one party";
  let seen = Hashtbl.create 8 in
  let arc_list =
    List.map
      (fun (from_, to_, (asset : Asset.t)) ->
        if from_ < 0 || from_ >= parties || to_ < 0 || to_ >= parties then
          invalid_arg "Deal.make: party out of range";
        if from_ = to_ then invalid_arg "Deal.make: self-transfer";
        if asset.Asset.amount = 0 then invalid_arg "Deal.make: zero asset";
        if Hashtbl.mem seen (from_, to_) then
          invalid_arg "Deal.make: duplicate arc";
        Hashtbl.add seen (from_, to_) ();
        { from_; to_; asset })
      transfers
  in
  { parties; arc_list }

let parties t = t.parties
let arcs t = t.arc_list
let arc_count t = List.length t.arc_list

let outgoing t p = List.filter (fun a -> a.from_ = p) t.arc_list
let incoming t p = List.filter (fun a -> a.to_ = p) t.arc_list
let successors t p = List.map (fun a -> a.to_) (outgoing t p)

(* all-pairs shortest hops (Floyd–Warshall), [parties] for none *)
let diameter t =
  let n = t.parties in
  let d =
    Array.init n (fun i ->
        let next = successors t i in
        Array.init n (fun j -> if i = j then 0 else if List.mem j next then 1 else n))
  in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        d.(i).(j) <- min d.(i).(j) (d.(i).(k) + d.(k).(j))
      done
    done
  done;
  Array.fold_left (Array.fold_left max) 0 d

let well_formed t = arc_count t > 0 && diameter t < t.parties

let expected_gain t p =
  Asset.Bag.of_list (List.map (fun a -> a.asset) (incoming t p))

let expected_loss t p =
  Asset.Bag.of_list (List.map (fun a -> a.asset) (outgoing t p))

let acceptable t p ~gained ~lost =
  let full_gain = expected_gain t p and full_loss = expected_loss t p in
  (* dominates "nothing": lost nothing (gaining extra is fine) *)
  Asset.Bag.is_empty lost
  || (* dominates "all": gained at least the promised, lost at most the
        promised *)
  (Asset.Bag.geq gained full_gain && Asset.Bag.geq full_loss lost)

let coin c n = Asset.make ~currency:c ~amount:n

let two_party_swap () =
  make ~parties:2 ~transfers:[ (0, 1, coin "coinA" 5); (1, 0, coin "coinB" 3) ]

let three_cycle () =
  make ~parties:3
    ~transfers:
      [ (0, 1, coin "coinA" 5); (1, 2, coin "coinB" 4); (2, 0, coin "coinC" 6) ]

let broker_dag () =
  make ~parties:3
    ~transfers:[ (0, 1, coin "coinA" 5); (1, 2, coin "coinB" 4) ]

let disconnected_pair () =
  make ~parties:4
    ~transfers:[ (0, 1, coin "coinA" 5); (2, 3, coin "coinB" 4) ]

let pp ppf t =
  Fmt.pf ppf "@[<v>deal(%d parties)%a@]" t.parties
    Fmt.(
      list ~sep:nop (fun ppf a ->
          pf ppf "@,  %d -> %d: %a" a.from_ a.to_ Asset.pp a.asset))
    t.arc_list
