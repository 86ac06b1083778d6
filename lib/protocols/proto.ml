type t = Sync | Naive | Htlc | Weak_single | Committee | Shared | Atomic

let table =
  [
    (Sync, "sync");
    (Naive, "naive");
    (Htlc, "htlc");
    (Weak_single, "weak");
    (Committee, "committee");
    (Shared, "shared");
    (Atomic, "atomic");
  ]

let name p = List.assq p table

let of_string ?(among = List.map fst table) s =
  match List.find_opt (fun (p, n) -> n = s && List.memq p among) table with
  | Some (p, _) -> Ok p
  | None -> Error (Printf.sprintf "unknown protocol %S" s)

let single = [ Sync; Naive; Htlc; Weak_single; Committee ]

let weak = Runner.Weak Weak_protocol.default_config

let committee =
  Runner.Weak
    { Weak_protocol.default_config with tm = Weak_protocol.Committee { f = 1 } }

let atomic = Runner.Atomic Atomic_protocol.default_config

let runner = function
  | Sync -> Runner.Sync_timebound
  | Naive -> Runner.Naive_universal
  | Htlc -> Runner.Htlc
  | Weak_single | Shared -> weak
  | Committee -> committee
  | Atomic -> atomic
