(* The oracle the blame tests check a critical path against: is a node
   list a source→sink path of a causal graph, its ids strictly
   increasing and every consecutive pair joined by an edge? Singleton
   and empty lists are vacuously valid. *)

module Causal = Obsv.Causal

let valid c = function
  | [] | [ _ ] -> true
  | first :: rest ->
      let n = Causal.node_count c in
      first >= 0 && first < n
      && snd
           (List.fold_left
              (fun (prev, ok) cur ->
                ( cur,
                  ok && prev < cur && cur < n
                  && List.exists (fun (_, s) -> s = prev) (Causal.preds c cur) ))
              (first, true) rest)
