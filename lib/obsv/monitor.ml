(* Online runtime verification: named safety checks evaluated against live
   run state on every engine dispatch. The monitor itself is generic — a
   check is a closure returning [Some detail] while its property is
   violated and [None] while it holds — so the harnesses (chaos, load)
   register closures that read the very same mutable state (ledger books,
   the trace) their post-hoc verdicts are computed from. Evaluating the
   same predicates on the same state at the end of the run is what makes
   the online verdict agree with the post-hoc report by construction. *)

type trip = { property : string; detail : string; at : int }

type check = { name : string; run : unit -> string option }

type t = {
  mutable checks : check array; (* registration order *)
  mutable live : (string * trip) list; (* currently-violated properties *)
  mutable first_trip : trip option; (* never reset once set *)
  mutable steps : int;
  mutable stop_on_violation : bool;
}

let create ?(stop_on_violation = false) () =
  { checks = [||]; live = []; first_trip = None; steps = 0; stop_on_violation }

(* registration is set-up work; [step] runs on every dispatch, so it walks
   the array with a loop and allocates nothing while every check holds *)
let register t ~name run = t.checks <- Array.append t.checks [| { name; run } |]

let step t ~at =
  t.steps <- t.steps + 1;
  for i = 0 to Array.length t.checks - 1 do
    let c = t.checks.(i) in
    match c.run () with
    | None ->
        if List.mem_assoc c.name t.live then
          t.live <- List.remove_assoc c.name t.live
    | Some detail ->
        if not (List.mem_assoc c.name t.live) then begin
          let trip = { property = c.name; detail; at } in
          t.live <- (c.name, trip) :: t.live;
          if t.first_trip = None then t.first_trip <- Some trip
        end
  done

let finalize t ~at = step t ~at

(* the position of the first check registered under [name] *)
let rank t name =
  let rec go i = if String.equal t.checks.(i).name name then i else go (i + 1) in
  go 0

let violations t =
  (* registration order, like a post-hoc report, whatever order the
     properties tripped in *)
  List.stable_sort
    (fun a b -> Int.compare (rank t a.property) (rank t b.property))
    (List.rev_map snd t.live)

let first_trip t = t.first_trip
let steps t = t.steps

let breach_at t =
  match t.first_trip with None -> -1 | Some trip -> trip.at

let should_stop t = t.stop_on_violation && t.first_trip <> None

(* The one forensic-bundle writer. The breach comes from the first trip;
   a run that never tripped is bundled as stuck at the caller's end time.
   [ring] and [metrics] are pre-rendered JSON from the layers that own
   them, so equal runs give byte-identical bundles. *)
let bundle_json t ~stuck_at ~stuck_detail ~repro ~ring ~metrics =
  let reason, property, detail, at =
    match t.first_trip with
    | Some tr -> ("violation", tr.property, tr.detail, tr.at)
    | None -> ("stuck", "-", stuck_detail, stuck_at)
  in
  Printf.sprintf
    "{\"bundle\":{\"reason\":\"%s\",\"property\":\"%s\",\"detail\":\"%s\",\
     \"at\":%d,\"repro\":\"%s\",\"ring\":%s,\"metrics\":%s}}\n"
    reason (Metrics.json_escape property) (Metrics.json_escape detail) at
    (Metrics.json_escape repro) ring metrics
