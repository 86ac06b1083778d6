(* A metric's value read through [Metrics.snapshot], the registry view the
   exporters render: the sample of family [name] whose label set is
   [labels] (in any order). *)

module Metrics = Obsv.Metrics

let sample reg ?(labels = []) name =
  let labels = List.sort compare labels in
  match
    List.find_opt
      (fun s -> s.Metrics.s_name = name && s.Metrics.s_labels = labels)
      (Metrics.snapshot reg)
  with
  | Some s -> s.Metrics.s_value
  | None -> Alcotest.failf "no sample %s" name

let counter reg ?labels name =
  match sample reg ?labels name with
  | Metrics.Counter_v v -> v
  | _ -> Alcotest.failf "%s is not a counter" name

let gauge reg ?labels name =
  match sample reg ?labels name with
  | Metrics.Gauge_v v -> v
  | _ -> Alcotest.failf "%s is not a gauge" name

(* (count, sum, cumulative buckets) *)
let histogram reg ?labels name =
  match sample reg ?labels name with
  | Metrics.Histogram_v { count; sum; buckets } -> (count, sum, buckets)
  | _ -> Alcotest.failf "%s is not a histogram" name
