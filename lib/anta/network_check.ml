module A = Automaton

type issue =
  | Dangling_send of { from_ : int; state : A.state; to_ : int }
  | Deaf_receiver of { from_ : int; to_ : int }
  | Unheard_listener of { at : int; state : A.state; from_ : int }

let severity = function
  | Dangling_send _ | Deaf_receiver _ -> `Error
  | Unheard_listener _ -> `Warning

let pp_issue ppf = function
  | Dangling_send { from_; state; to_ } ->
      Fmt.pf ppf "pid %d (state %s) sends to pid %d, which runs no automaton"
        from_ state to_
  | Deaf_receiver { from_; to_ } ->
      Fmt.pf ppf
        "pid %d sends to pid %d, but %d has no receive transition for \
         messages from %d"
        from_ to_ to_ from_
  | Unheard_listener { at; state; from_ } ->
      Fmt.pf ppf
        "pid %d (state %s) waits for messages from pid %d, which never \
         sends to %d"
        at state from_ at

(* (sender, receiver) channels implied by output states (bar those to an
   engine pid, which leave the network) / receive guards *)
let sends_of auto =
  List.filter_map
    (fun st ->
      match A.node auto st with
      | Some (A.Output { to_; absolute = false; _ }) -> Some (st, to_)
      | _ -> None)
    (A.states auto)

let listens_of auto =
  List.concat_map
    (fun st ->
      match A.node auto st with
      | Some (A.Input branches) ->
          List.filter_map
            (fun (b : ('i, 'msg, 'obs) A.branch) ->
              match b.A.guard with
              | A.Receive { from_; _ } -> Some (st, from_)
              | A.Deadline _ | A.At _ -> None)
            branches
      | _ -> [])
    (A.states auto)

let check ?(peers = []) network =
  (* each automaton's channels, computed once *)
  let autos =
    List.map (fun (pid, auto) -> (pid, (sends_of auto, listens_of auto))) network
  in
  let has_pid pid = List.mem_assoc pid autos || List.mem pid peers in
  let issues = ref [] in
  let add i = issues := i :: !issues in
  (* send side *)
  List.iter
    (fun (from_, (sends, _)) ->
      List.iter
        (fun (state, to_) ->
          if not (has_pid to_) then add (Dangling_send { from_; state; to_ })
          else
            (* a peer's hearing is its own business *)
            match List.assoc_opt to_ autos with
            | Some (_, listens) ->
                if not (List.exists (fun (_, f) -> Pool.admits f from_) listens) then
                  add (Deaf_receiver { from_; to_ })
            | None -> ())
        sends)
    autos;
  (* receive side: a listen is heard when one of its senders is a peer
     or addresses [at]; a listen to anyone always is *)
  let heard at from_ =
    List.mem from_ peers
    || match List.assoc_opt from_ autos with
       | None -> false
       | Some (sends, _) -> List.exists (fun (_, t) -> t = at) sends
  in
  List.iter
    (fun (at, (_, listens)) ->
      List.iter
        (fun (state, senders) ->
          let pids =
            match senders with A.One p -> [| p |] | A.Among ps -> ps | A.Any -> [||]
          in
          if pids <> [||] && not (Array.exists (heard at) pids) then
            Array.iter (fun from_ -> add (Unheard_listener { at; state; from_ })) pids)
        listens)
    autos;
  (* dedup Deaf_receiver per channel, errors first *)
  let seen = Hashtbl.create 16 in
  let deduped =
    List.filter
      (fun i ->
        match i with
        | Deaf_receiver { from_; to_ } ->
            if Hashtbl.mem seen (from_, to_) then false
            else begin
              Hashtbl.add seen (from_, to_) ();
              true
            end
        | _ -> true)
      (List.rev !issues)
  in
  List.stable_sort
    (fun a b ->
      match (severity a, severity b) with
      | `Error, `Warning -> -1
      | `Warning, `Error -> 1
      | _ -> 0)
    deduped

let errors issues = List.filter (fun i -> severity i = `Error) issues

let well_formed ?peers autos =
  let rec each pid =
    if pid < Array.length autos then
      match A.check autos.(pid) with
      | Ok () -> each (pid + 1)
      | Error errs ->
          Error
            (Fmt.str "automaton %s: %a" (A.name autos.(pid))
               Fmt.(list ~sep:(any "; ") A.pp_check_error)
               errs)
    else
      (* every automaton checks; now the channels must carry the
         conversation (no dangling sends, no deaf receivers) *)
      let network = List.mapi (fun pid a -> (pid, a)) (Array.to_list autos) in
      match errors (check ?peers network) with
      | [] -> Ok ()
      | issues ->
          Error
            (Fmt.str "network wiring: %a"
               Fmt.(list ~sep:(any "; ") pp_issue)
               issues)
  in
  each 0
