open Sim
module A = Anta.Automaton
module E = Engine
module Auth = Xcrypto.Auth
module Asset = Ledger.Asset
module Book = Ledger.Book

type commit_protocol = Timelock | Cbc

type config = {
  deal : Deal.t;
  protocol : commit_protocol;
  compliant : bool array;
  delta : Sim_time.t;
  sigma : Sim_time.t;
  drift_ppm : int;
  gst : Sim_time.t option;
  cb_patience : Sim_time.t;
  seed : int;
  max_events : int;
}

let default_config deal protocol =
  {
    deal;
    protocol;
    compliant = Array.make (Deal.parties deal) true;
    delta = 100;
    sigma = 10;
    drift_ppm = 10_000;
    gst = None;
    cb_patience = 20_000;
    seed = 11;
    max_events = 100_000;
  }

type vote = Dmsg.vote_body Auth.signed

type inst = {
  books : Book.t array;
  deposits : int array;
  registry : Auth.registry;
  votes : vote array;
  known : (int, vote) Hashtbl.t array;
}

type auto = (inst, Dmsg.t, Dobs.t) A.t

type outcome = {
  config : config;
  status : E.status;
  trace : (Dmsg.t, Dobs.t) Trace.t;
  books : Book.t array;
  end_time : Sim_time.t;
  conformance : int -> (unit, Anta.Conformance.deviation) result;
}

let deal_id = 1
let fmt = Printf.sprintf

(* pid layout: parties, then one escrow per arc, then the certifier *)
let arc_pid cfg k = Deal.parties cfg.deal + k
let cb_pid cfg = Deal.parties cfg.deal + Deal.arc_count cfg.deal
let indexed_arcs cfg = List.mapi (fun k a -> (k, a)) (Deal.arcs cfg.deal)
let legs cfg ~out p =
  let ends (a : Deal.arc) = if out then a.Deal.from_ else a.Deal.to_ in
  List.filter_map (fun (k, a) -> if ends a = p then Some k else None) (indexed_arcs cfg)
let everyone cfg = (1 lsl Deal.parties cfg.deal) - 1

(* the parties with a valid vote among [votes], as a bit mask *)
let voters cfg registry votes =
  List.fold_left
    (fun acc (sv : vote) ->
      let b = sv.Auth.payload and q = sv.Auth.author in
      if
        b.Dmsg.v_deal = deal_id && b.Dmsg.v_party = q && q < Deal.parties cfg.deal
        && Auth.verify_value registry ~put:Dmsg.ser_vote sv
      then acc lor (1 lsl q)
      else acc)
    0 votes

let known inst p = Hashtbl.fold (fun _ sv acc -> sv :: acc) inst.known.(p) []

(* Timelock ladder: enough real time for deposits, diameter rounds of vote
   gossip, and the claim hop — inflated for drift. *)
let claim_window cfg =
  let step = Sim_time.add cfg.sigma cfg.delta in
  let rungs = Deal.diameter cfg.deal + 7 in
  let raw = Sim_time.scale step ~num:rungs ~den:1 in
  Sim_time.scale raw ~num:(1_000_000 + cfg.drift_ppm) ~den:1_000_000

let dst pid = (pid, false)

(* the first state of [A.script name dsts ~next] *)
let head name dsts next = if dsts = [] then next else name ^ "0"

(* ------------------------------ parties ------------------------------ *)

(* Party p, in the states the interface names. HLS phase order: it votes
   once every incoming leg is escrowed (earlier, a freeloader could collect
   legs it never funded). After its vote it gossips what it knows to its
   successors whenever that grows and, under the timelock, claims its
   incoming legs once it knows every vote. It takes its legs' fates in a
   fixed order: each outgoing leg's refund, then each incoming payout. *)
let party cfg p : auto =
  let np = Deal.parties cfg.deal and all = everyone cfg and cb = cb_pid cfg in
  let me = 1 lsl p in
  let outs = legs cfg ~out:true p and ins = legs cfg ~out:false p in
  let fates =
    List.map (fun k -> (arc_pid cfg k, ( = ) (Dmsg.Refund { arc = k }))) outs
    @ List.map (fun k -> (arc_pid cfg k, ( = ) (Dmsg.Paid { arc = k }))) ins
  in
  let is_cert = function Dmsg.Cb_cert _ -> true | _ -> false in
  (* without legs, under CBC, it awaits the certificate *)
  let fates = if fates = [] && cfg.protocol = Cbc then [ (cb, is_cert) ] else fates in
  let masks = List.filter (fun s -> s land me <> 0) (List.init (all + 1) Fun.id) in
  let claims = List.map (fun k -> dst (arc_pid cfg k)) ins in
  let full s = cfg.protocol = Timelock && s = all in
  let succs = List.map dst (Deal.successors cfg.deal p) in
  let gossip s = succs @ if full s then claims else [] in
  let cast s = if cfg.protocol = Cbc then [ dst cb ] else gossip s in
  (* what it sends follows from where it goes *)
  let message to_ inst _ _ =
    if to_ = cb then Dmsg.Cb_vote inst.votes.(p)
    else if to_ < np then Dmsg.Votes (known inst p)
    else if List.mem (to_ - np) outs then Dmsg.Deposit { arc = to_ - np }
    else Dmsg.Claim { arc = to_ - np; votes = known inst p }
  in
  let waiting j s = fmt "legs%d.k%d" j s in
  let voted s f = if f = List.length fates then "done" else fmt "voted.k%d.f%d" s f in
  let vote s = fmt "vote.k%d." s and learnt s f = fmt "learn.k%d.f%d." s f in
  let send name dsts next = A.script name dsts ~next message in
  let voting s = head (vote s) (cast s) (voted s 0) in
  let learn inst _ _ = function
    | Some (Dmsg.Votes vs) ->
        List.iter
          (fun (sv : vote) ->
            if voters cfg inst.registry [ sv ] <> 0 then
              Hashtbl.replace inst.known.(p) sv.Auth.author sv)
          vs
    | _ -> ()
  in
  (* a branch per mask a Votes message may grow [s] to, then one for a
     message that adds nothing (a certificate included) *)
  let hear s next stay =
    List.map
      (fun s' ->
        A.on_receive ~from_:A.Any ~describe:(fmt "votes, known k%d" s') ~act:learn
          ~accept:(fun inst -> function
            | Dmsg.Votes vs -> s lor voters cfg inst.registry vs = s' | _ -> false)
          ~next:(next s') ())
      (List.filter (fun s' -> s' <> s && s' land s = s) masks)
    @ [
        A.on_receive ~from_:A.Any ~describe:"nothing new" ~next:stay ()
          ~accept:(fun _ -> function Dmsg.Votes _ | Dmsg.Cb_cert _ -> true | _ -> false);
      ]
  in
  let from_ pid describe accept next =
    A.on_receive ~from_:(A.One pid) ~describe ~next () ~accept:(fun _ m -> accept m)
  in
  let last = List.length ins - 1 in
  (* the states knowing [s]: waiting for its legs' notices, its vote's
     sends, then each fate in turn and the sends after learning [s] *)
  let states s =
    List.mapi
      (fun j k ->
        let next = if j = last then voting s else waiting (j + 1) s in
        let escrowed = ( = ) (Dmsg.Escrowed_notice { arc = k }) in
        let notice = from_ (arc_pid cfg k) "escrowed" escrowed next in
        (waiting j s, A.input (notice :: hear s (waiting j) (waiting j s))))
      ins
    @ (if ins = [] && s <> me then [] else send (vote s) (cast s) (voted s 0))
    @ List.concat
        (List.mapi
           (fun f (pid, settles) ->
             let grown s' = head (learnt s' f) (gossip s') (voted s' f) in
             let fate = from_ pid "fate" settles (voted s (f + 1)) in
             (voted s f, A.input (fate :: hear s grown (voted s f)))
             :: (if s = me then [] else send (learnt s f) (gossip s) (voted s f)))
           fates)
  in
  let deposits = List.map (fun k -> dst (arc_pid cfg k)) outs in
  let funded = if ins = [] then voting me else waiting 0 me in
  let outcome = if ins = [] then "deal-off" else "deal-done" in
  let terminated _ ctx _ = E.observe ctx (Dobs.Terminated { pid = p; outcome }) in
  A.make ~name:(fmt "party%d" p) ~initial:(head "deposit" deposits funded)
    ~nodes:
      (send "deposit" deposits funded
      @ List.concat_map states masks
      @ [ ("done", A.final ~act:terminated ()) ])
    ()

(* --------------------------- escrow per arc --------------------------- *)

(* The escrow of arc k takes the payer's deposit and tells the payee (and
   the certifier, under CBC) that the leg is funded. Under the timelock it
   then pays the payee against a claim holding every party's valid vote,
   revealing those votes to the payer (HLS: the claim makes its proofs
   public, which makes a vote hoarder harmless), refuses an incomplete
   claim, or refunds the payer when the timelock runs out. Under CBC the
   certificate decides. Early claims and certificates wait in the pool. *)
let escrow cfg k (arc : Deal.arc) : auto =
  let payer = arc.Deal.from_ and payee = arc.Deal.to_ and asset = arc.Deal.asset in
  let cb = cb_pid cfg and timelock = cfg.protocol = Timelock in
  (* the escrow's book is its own: the payer's whole balance is the one
     deposit it takes, which it then releases or refunds, once *)
  let deposit (inst : inst) ctx _ _ =
    let amount = asset.Asset.amount in
    inst.deposits.(k) <- Result.get_ok (Book.deposit inst.books.(k) ~from_:payer ~amount);
    E.observe ctx (Dobs.Escrowed { arc = k; party = payer; asset })
  in
  let settle release (inst : inst) ctx _ =
    let book = inst.books.(k) and dep = inst.deposits.(k) in
    Result.get_ok
      (if release then Book.release book dep ~to_:payee else Book.refund book dep);
    E.observe ctx
      (if release then Dobs.Paid_out { arc = k; to_ = payee; asset }
       else Dobs.Refunded { arc = k; to_ = payer; asset })
  in
  let claim full inst = function
    | Dmsg.Claim { arc; votes } ->
        arc = k && (voters cfg inst.registry votes = everyone cfg) = full
    | _ -> false
  in
  let refused _ ctx _ _ =
    E.observe ctx (Dobs.Rejected { pid = arc_pid cfg k; what = "incomplete claim" })
  in
  let cert describe commit next =
    A.on_receive ~from_:(A.One cb) ~describe ~next ()
      ~accept:(fun inst -> function
        | Dmsg.Cb_cert sv ->
            sv.Auth.payload.Dmsg.c_commit = commit
            && Auth.verify_value inst.registry ~put:Dmsg.ser_cb sv
        | _ -> false)
  in
  let await =
    if timelock then
      [
        A.on_deadline ~timer:"timelock" ~base:"d" ~offset:(claim_window cfg)
          ~next:"refund0" ();
        A.on_receive ~from_:(A.One payee) ~describe:"claim, every vote"
          ~accept:(claim true) ~save_msg:"claim" ~next:"pay0" ();
        A.on_receive ~from_:(A.One payee) ~describe:"claim, votes missing"
          ~accept:(claim false) ~act:refused ~next:"await" ();
      ]
    else [ cert "cb-commit" true "pay0"; cert "cb-abort" false "refund0" ]
  in
  let deposited =
    A.on_receive ~from_:(A.One payer) ~describe:"deposit" ~save_now:[ "d" ] ~act:deposit
      ~accept:(fun _ m -> m = Dmsg.Deposit { arc = k })
      ~next:"notify0" ()
  in
  (* the payout, then under the timelock the claim's votes to the payer *)
  let paid to_ _ _ store =
    if to_ = payee then Dmsg.Paid { arc = k }
    else
      match Anta.Store.data store "claim" with
      | Dmsg.Claim { votes; _ } -> Dmsg.Votes votes
      | m -> m
  in
  let notify = dst payee :: (if timelock then [] else [ dst cb ]) in
  let tell m _ _ _ _ = m in
  A.make ~name:(fmt "escrow%d" k) ~initial:"await_deposit"
    ~nodes:
      (("await_deposit", A.input [ deposited ])
       :: A.script "notify" notify ~next:"await" (tell (Dmsg.Escrowed_notice { arc = k }))
      @ (("await", A.input await)
        :: A.script "pay" (dst payee :: (if timelock then [ dst payer ] else []))
             ~first:(settle true) ~next:"released" paid)
      @ A.script "refund" [ dst payer ] ~first:(settle false) ~next:"refunded"
          (tell (Dmsg.Refund { arc = k }))
      @ [ ("released", A.final ()); ("refunded", A.final ()) ])
    ()

(* ------------------------ certified blockchain ------------------------ *)

(* The certifier hears every party's valid vote, then every leg's notice,
   in pid order, and certifies commit when the last is in, or abort if its
   patience runs out first; then it tells every party and every escrow. *)
let certifier cfg : auto =
  let np = Deal.parties cfg.deal and n = cb_pid cfg in
  let decide commit inst ctx store _ =
    E.observe ctx (Dobs.Cb_decided { commit });
    let body = { Dmsg.c_deal = deal_id; c_commit = commit } in
    let signed = Auth.sign_value (Auth.signer_of inst.registry n) ~put:Dmsg.ser_cb body in
    Anta.Store.set_data store "cert" (Dmsg.Cb_cert signed)
  in
  let patience =
    A.on_deadline ~timer:"cb-patience" ~base:"born" ~offset:cfg.cb_patience
      ~act:(decide false) ~next:"announce0" ()
  in
  (* [collect<i>] hears pid i *)
  let collect i = if i = n then "announce0" else fmt "collect%d" i in
  let hear i =
    if i < np then
      A.on_receive ~from_:(A.One i) ~describe:"vote" ~accept:(fun inst -> function
        | Dmsg.Cb_vote sv -> voters cfg inst.registry [ sv ] = 1 lsl i
        | _ -> false)
    else
      A.on_receive ~from_:(A.One i) ~describe:"escrowed" ~accept:(fun _ m ->
          m = Dmsg.Escrowed_notice { arc = i - np })
  in
  A.make ~name:"certifier" ~born:[ "born" ] ~initial:(collect 0)
    ~nodes:
      (List.init n (fun i ->
           let act = if i = n - 1 then Some (decide true) else None in
           (collect i, A.input [ hear i ?act ~next:(collect (i + 1)) (); patience ]))
      @ A.script "announce" (List.init n dst) ~next:"decided" (fun _ _ _ s ->
            Anta.Store.data s "cert")
      @ [ ("decided", A.final ()) ])
    ()

let compile cfg =
  let np = Deal.parties cfg.deal and arcs = Array.of_list (Deal.arcs cfg.deal) in
  let tmpl =
    Array.init
      (cb_pid cfg + if cfg.protocol = Cbc then 1 else 0)
      (fun pid ->
        if pid < np then party cfg pid
        else if pid < cb_pid cfg then escrow cfg (pid - np) arcs.(pid - np)
        else certifier cfg)
  in
  match Anta.Network_check.well_formed tmpl with
  | Ok () -> tmpl
  | Error e -> invalid_arg ("Deal_runner.template: " ^ e)

(* The templates built so far, keyed by exactly the config fields the
   builders read: the deal, the protocol and the timing. A compiled
   automaton never changes once built (executors keep their state apart,
   edits build new automata, and [execute] maps the array into a fresh
   one), so every run of a key shares one template. *)
module Template_map = Map.Make (struct
  type t = Deal.t * commit_protocol * (Sim_time.t * Sim_time.t * int * Sim_time.t)

  let compare = compare
end)

let template_memo : auto array Template_map.t Atomic.t =
  Atomic.make Template_map.empty

let template cfg =
  if Array.length cfg.compliant <> Deal.parties cfg.deal then
    invalid_arg "Deal_runner.run: compliant array size mismatch";
  let key =
    (cfg.deal, cfg.protocol, (cfg.delta, cfg.sigma, cfg.drift_ppm, cfg.cb_patience))
  in
  Sim.Memo.find_or_add Template_map.find_opt Template_map.add template_memo key
    (fun () -> compile cfg)

let instance cfg =
  let registry = Auth.create ~seed:(cfg.seed + 3) in
  let votes =
    Array.init (Deal.parties cfg.deal) (fun q ->
        Auth.sign_value (Auth.register registry q) ~put:Dmsg.ser_vote
          { Dmsg.v_party = q; v_deal = deal_id })
  in
  let book (k, (a : Deal.arc)) =
    let book = Book.create ~currency:a.Deal.asset.Asset.currency in
    List.iter (fun (owner, balance) -> Book.open_account book ~owner ~balance)
      [ (a.Deal.from_, a.Deal.asset.Asset.amount); (a.Deal.to_, 0); (arc_pid cfg k, 0) ];
    book
  in
  {
    books = Array.of_list (List.map book (indexed_arcs cfg));
    deposits = Array.make (Deal.arc_count cfg.deal) (-1);
    registry;
    votes;
    known =
      Array.map (fun (v : vote) -> Hashtbl.of_seq (Seq.return (v.Auth.author, v))) votes;
  }

(* ----------------------------- telemetry ------------------------------- *)

let protocol_label = function Timelock -> "timelock" | Cbc -> "cbc"

(* Post-run, trace-derived (like Protocols.Runner): one root span per deal,
   one child per party carrying its termination status, plus the per-arc
   settlement spans (escrow -> paid/refunded). *)
let emit_telemetry (o : outcome) =
  let reg = Obsv.Metrics.default and cfg = o.config in
  let labels = [ ("protocol", protocol_label cfg.protocol) ] in
  let obs = Trace.observations o.trace and arcs = Deal.arc_count cfg.deal in
  let paid =
    List.length (List.filter (function _, _, Dobs.Paid_out _ -> true | _ -> false) obs)
  in
  let status = if paid = arcs then "commit" else if paid = 0 then "abort" else "mixed" in
  let count name help labels =
    Obsv.Metrics.inc (Obsv.Metrics.counter reg ~help ~labels name)
  in
  count "xchain_deals_started_total" "Deals started" labels;
  count "xchain_deals_settled_total" "Deals settled, by final status"
    (("status", status) :: labels);
  Obsv.Metrics.observe
    (Obsv.Metrics.histogram reg ~labels ~help:"Deal wall-clock, init to quiescence, ticks"
       "xchain_deal_latency")
    o.end_time;
  let spans = Obsv.Span.default in
  if Obsv.Span.capture spans then begin
    let np = Deal.parties cfg.deal in
    let counts = [ ("parties", np); ("arcs", arcs); ("seed", cfg.seed) ] in
    let attrs = List.map (fun (key, v) -> (key, string_of_int v)) counts in
    let attrs = ("protocol", protocol_label cfg.protocol) :: attrs in
    let root = Obsv.Span.start spans ~name:"deal" ~attrs ~at:0 () in
    (* a child from [at], closed by the first observation [closes] names a
       status for, or else [open_] at the end *)
    let child name ~at ~open_ closes =
      let span = Obsv.Span.start spans ~parent:root ~name ~at () in
      let closing (t, _, e) = Option.map (fun s -> (t, s)) (closes e) in
      match List.find_map closing obs with
      | Some (t, status) -> Obsv.Span.finish ~status ~at:t span
      | None -> Obsv.Span.finish ~status:open_ ~at:o.end_time span
    in
    for p = 0 to np - 1 do
      child (fmt "party:%d" p) ~at:0 ~open_:"running" (function
        | Dobs.Terminated { pid; outcome } when pid = p -> Some outcome
        | _ -> None)
    done;
    for k = 0 to arcs - 1 do
      let escrowed = function _, _, Dobs.Escrowed { arc; _ } -> arc = k | _ -> false in
      match List.find_opt escrowed obs with
      | None -> ()
      | Some (t0, _, _) ->
          child (fmt "arc:%d" k) ~at:t0 ~open_:"held" (function
            | Dobs.Paid_out { arc; _ } when arc = k -> Some "paid"
            | Dobs.Refunded { arc; _ } when arc = k -> Some "refunded"
            | _ -> None)
    done;
    Obsv.Span.finish ~status ~at:o.end_time root
  end

let execute cfg tmpl ~edit =
  let stall pid auto =
    if pid < Deal.parties cfg.deal && not cfg.compliant.(pid) then
      A.rebuild auto ~initial:A.stall
    else auto
  in
  let autos = Array.mapi (fun pid auto -> stall pid (edit pid auto)) tmpl in
  let inst = instance cfg in
  let delta = cfg.delta in
  let model =
    Option.fold cfg.gst ~none:(Network.Synchronous { delta }) ~some:(fun gst ->
        Network.Partially_synchronous { gst; delta })
  in
  let network = Network.create model (Rng.create ~seed:(cfg.seed + 19)) in
  let engine = E.create ~tag_of:Dmsg.tag ~network ~sigma:cfg.sigma ~seed:cfg.seed () in
  let clock_rng = Rng.create ~seed:(cfg.seed + 23) in
  Array.iteri
    (fun pid _ ->
      let clock = Clock.random clock_rng ~drift_ppm:cfg.drift_ppm in
      ignore (E.add_process engine ~clock (Anta.Executor.instantiate autos inst pid)))
    autos;
  let status = E.run ~max_events:cfg.max_events engine in
  let trace = E.trace engine in
  let replay pid = Anta.Conformance.check tmpl.(pid) inst ~pid in
  let o =
    {
      config = cfg;
      status;
      trace;
      books = inst.books;
      end_time = E.now engine;
      conformance = (fun pid -> replay pid ~tag_of:Dmsg.tag trace);
    }
  in
  emit_telemetry o;
  o

let run cfg = execute cfg (template cfg) ~edit:(fun _ auto -> auto)

(* the assets paid out on the arcs [f arc payee] selects *)
let paid_out outcome f =
  List.fold_left
    (fun acc (_, _, o) ->
      match o with
      | Dobs.Paid_out { arc; to_; asset } when f arc to_ -> Asset.Bag.add acc asset
      | _ -> acc)
    Asset.Bag.empty
    (Trace.observations outcome.trace)

let gained outcome party = paid_out outcome (fun _ to_ -> to_ = party)

let lost outcome party =
  let arcs = Array.of_list (Deal.arcs outcome.config.deal) in
  paid_out outcome (fun arc _ -> arcs.(arc).Deal.from_ = party)

let escrowed_forever outcome =
  List.filter_map
    (fun (k, (a : Deal.arc)) ->
      match Book.deposit_status outcome.books.(k) 0 with
      | Some Book.Held -> Some (k, a.Deal.from_)
      | _ -> None)
    (indexed_arcs outcome.config)
