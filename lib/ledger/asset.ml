type t = { currency : string; amount : int }

let make ~currency ~amount =
  if amount < 0 then invalid_arg "Asset.make: negative amount";
  { currency; amount }

let zero currency = { currency; amount = 0 }
let is_zero a = a.amount = 0

let check_same op a b =
  if not (String.equal a.currency b.currency) then
    invalid_arg
      (Printf.sprintf "Asset.%s: currency mismatch (%s vs %s)" op a.currency
         b.currency)

let add a b =
  check_same "add" a b;
  { a with amount = a.amount + b.amount }

let sub a b =
  check_same "sub" a b;
  if a.amount < b.amount then invalid_arg "Asset.sub: would go negative";
  { a with amount = a.amount - b.amount }

let equal a b = String.equal a.currency b.currency && a.amount = b.amount

let compare a b =
  let c = String.compare a.currency b.currency in
  if c <> 0 then c else Int.compare a.amount b.amount

let pp ppf a = Fmt.pf ppf "%d %s" a.amount a.currency

module Bag = struct
  type asset = t

  module M = Map.Make (String)

  type nonrec t = int M.t

  let empty = M.empty
  let is_empty b = M.for_all (fun _ v -> v = 0) b

  let add b (a : asset) =
    if a.amount = 0 then b
    else
      M.update a.currency
        (function None -> Some a.amount | Some v -> Some (v + a.amount))
        b

  let of_list l = List.fold_left add M.empty l

  let to_list b =
    M.bindings b
    |> List.filter_map (fun (currency, amount) ->
           if amount = 0 then None else Some { currency; amount })

  let union x y = M.union (fun _ a b -> Some (a + b)) x y
  let amount b c = match M.find_opt c b with None -> 0 | Some v -> v

  let sub b (a : asset) =
    let have = amount b a.currency in
    if have < a.amount then
      Error
        (Printf.sprintf "bag holds %d %s, cannot remove %d" have a.currency
           a.amount)
    else Ok (M.add a.currency (have - a.amount) b)

  let diff x y =
    M.fold
      (fun currency amount acc ->
        match acc with
        | Error _ as e -> e
        | Ok b -> sub b { currency; amount })
      y (Ok x)

  let geq x y = M.for_all (fun c v -> amount x c >= v) y

  let equal x y =
    M.for_all (fun c v -> amount y c = v) x
    && M.for_all (fun c v -> amount x c = v) y

  let pp ppf b =
    match to_list b with
    | [] -> Fmt.string ppf "∅"
    | l -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp) l
end
