include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)
