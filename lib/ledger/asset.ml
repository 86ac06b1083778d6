type t = { currency : string; amount : int }

let make ~currency ~amount =
  if amount < 0 then invalid_arg "Asset.make: negative amount";
  { currency; amount }

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

  let amount b c = match M.find_opt c b with None -> 0 | Some v -> v
  let geq x y = M.for_all (fun c v -> amount x c >= v) y

  let pp ppf b =
    match to_list b with
    | [] -> Fmt.string ppf "∅"
    | l -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp) l
end
