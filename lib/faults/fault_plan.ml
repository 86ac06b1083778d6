open Sim

type link_rule = {
  src : int option;
  dst : int option;
  drop_pm : int;
  dup_pm : int;
  corrupt_pm : int;
}

type crash_spec = {
  pid : int;
  at : Sim_time.t;
  recover_at : Sim_time.t option;
}

type partition_spec = {
  groups : int list list;
  gnames : string option list;
  from_ : Sim_time.t;
  until_ : Sim_time.t option;
}

type t = {
  links : link_rule list;
  crashes : crash_spec list;
  partitions : partition_spec list;
  gst_jitter : Sim_time.t;
}

let none = { links = []; crashes = []; partitions = []; gst_jitter = 0 }

let is_none p =
  p.links = [] && p.crashes = [] && p.partitions = [] && p.gst_jitter = 0

let clause_count p =
  List.length p.links + List.length p.crashes + List.length p.partitions
  + if p.gst_jitter > 0 then 1 else 0

(* The canonical form [of_string (to_string p)] lands on: every link rule
   carries exactly one nonzero kind (a combined rule prints as several
   clauses, which parse back as separate rules), no-op rules vanish, a
   non-positive jitter is the absent clause, and a partition whose groups
   are all unnamed carries [gnames = []] (an all-[None] list prints
   identically, so it parses back to the empty list). *)
let normalize p =
  let partitions =
    List.map
      (fun (s : partition_spec) ->
        if List.for_all (( = ) None) s.gnames then { s with gnames = [] }
        else s)
      p.partitions
  in
  let p = { p with partitions } in
  let links =
    List.concat_map
      (fun (r : link_rule) ->
        let one ~drop ~dup ~corrupt pm =
          if pm <= 0 then []
          else
            [
              {
                src = r.src;
                dst = r.dst;
                drop_pm = (if drop then pm else 0);
                dup_pm = (if dup then pm else 0);
                corrupt_pm = (if corrupt then pm else 0);
              };
            ]
        in
        one ~drop:true ~dup:false ~corrupt:false r.drop_pm
        @ one ~drop:false ~dup:true ~corrupt:false r.dup_pm
        @ one ~drop:false ~dup:false ~corrupt:true r.corrupt_pm)
      p.links
  in
  { p with links; gst_jitter = Stdlib.max 0 p.gst_jitter }

(* ------------------------------ validate ------------------------------ *)

(* a group name must not be mistakable for a member list or a window:
   leading letter, then letters / digits / underscores *)
let valid_group_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let validate p ~nprocs =
  let ( let* ) = Result.bind in
  let err fmt = Fmt.kstr Result.error fmt in
  let check_pid what pid =
    if pid < 0 || pid >= nprocs then
      err "%s: pid %d out of range (0..%d)" what pid (nprocs - 1)
    else Ok ()
  in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        each f rest
  in
  let* () =
    each
      (fun r ->
        let pm what v =
          if v < 0 || v > 1000 then
            err "link rule: %s probability %d out of [0, 1000] per mille" what v
          else Ok ()
        in
        let* () = pm "drop" r.drop_pm in
        let* () = pm "dup" r.dup_pm in
        let* () = pm "corrupt" r.corrupt_pm in
        let* () =
          if r.drop_pm = 0 && r.dup_pm = 0 && r.corrupt_pm = 0 then
            err
              "link rule: all probabilities zero (degenerate clause with no \
               effect)"
          else Ok ()
        in
        let* () =
          match r.src with Some s -> check_pid "link rule src" s | None -> Ok ()
        in
        match r.dst with Some d -> check_pid "link rule dst" d | None -> Ok ())
      p.links
  in
  let* () =
    each
      (fun (c : crash_spec) ->
        let* () = check_pid "crash" c.pid in
        let* () =
          if Sim_time.(c.at < zero) then
            err "crash %d: negative crash time %a" c.pid Sim_time.pp c.at
          else Ok ()
        in
        match c.recover_at with
        | Some r when Sim_time.(r <= c.at) ->
            err
              "crash %d: recovery at %a not after crash at %a (zero-duration \
               outage)"
              c.pid Sim_time.pp r Sim_time.pp c.at
        | _ -> Ok ())
      p.crashes
  in
  let* () =
    let seen = Hashtbl.create 8 in
    each
      (fun (c : crash_spec) ->
        if Hashtbl.mem seen c.pid then
          err "crash %d: at most one crash schedule per pid" c.pid
        else begin
          Hashtbl.add seen c.pid ();
          Ok ()
        end)
      p.crashes
  in
  let* () =
    each
      (fun (s : partition_spec) ->
      let* () =
        if List.length s.groups < 2 then
          err "partition: needs at least two groups"
        else Ok ()
      in
      let* () =
        each
          (fun g ->
            if g = [] then err "partition: empty group"
            else each (check_pid "partition") g)
          s.groups
      in
      let* () =
        let seen = Hashtbl.create 8 in
        each
          (fun pid ->
            if Hashtbl.mem seen pid then
              err "partition: pid %d in two groups" pid
            else begin
              Hashtbl.add seen pid ();
              Ok ()
            end)
          (List.concat s.groups)
      in
      let* () =
        if s.gnames <> [] && List.length s.gnames <> List.length s.groups then
          err "partition: %d names for %d groups" (List.length s.gnames)
            (List.length s.groups)
        else Ok ()
      in
      let* () =
        if s.gnames <> [] && List.exists (( = ) None) s.gnames then
          err "partition: either every group is named or none is"
        else Ok ()
      in
      let* () =
        each
          (function
            | None -> Ok ()
            | Some n ->
                if valid_group_name n then Ok ()
                else err "partition: bad group name %S" n)
          s.gnames
      in
      let* () =
        let seen = Hashtbl.create 4 in
        each
          (function
            | None -> Ok ()
            | Some n ->
                if Hashtbl.mem seen n then
                  err "partition: group name %S used twice" n
                else begin
                  Hashtbl.add seen n ();
                  Ok ()
                end)
          s.gnames
      in
      let* () =
        if Sim_time.(s.from_ < zero) then
          err "partition: negative start time %a" Sim_time.pp s.from_
        else Ok ()
      in
      match s.until_ with
      | Some u when Sim_time.(u <= s.from_) ->
          err
            "partition: heal at %a not after start at %a (zero-duration \
             window)"
            Sim_time.pp u Sim_time.pp s.from_
      | _ -> Ok ())
      p.partitions
  in
  if Sim_time.(p.gst_jitter < zero) then
    err "gst jitter: negative (%a)" Sim_time.pp p.gst_jitter
  else Ok ()

(* ----------------------------- to_string ------------------------------ *)

(* probabilities print as decimals with no trailing zeros: 250‰ -> "0.25" *)
let pm_to_string pm =
  if pm = 1000 then "1"
  else if pm mod 100 = 0 then Printf.sprintf "0.%d" (pm / 100)
  else if pm mod 10 = 0 then Printf.sprintf "0.%02d" (pm / 10)
  else Printf.sprintf "0.%03d" pm

let endpoint_to_string = function None -> "*" | Some p -> string_of_int p

let to_string p =
  let buf = Buffer.create 64 in
  let clause fmt =
    Fmt.kstr
      (fun s ->
        if Buffer.length buf > 0 then Buffer.add_string buf "; ";
        Buffer.add_string buf s)
      fmt
  in
  List.iter
    (fun r ->
      let link kind pm =
        if pm > 0 then
          clause "%s %s>%s %s" kind (endpoint_to_string r.src)
            (endpoint_to_string r.dst) (pm_to_string pm)
      in
      link "drop" r.drop_pm;
      link "dup" r.dup_pm;
      link "corrupt" r.corrupt_pm)
    p.links;
  List.iter
    (fun (c : crash_spec) ->
      match c.recover_at with
      | None -> clause "crash %d@%d" c.pid c.at
      | Some r -> clause "crash %d@%d+%d" c.pid c.at (Sim_time.sub r c.at))
    p.crashes;
  List.iter
    (fun (s : partition_spec) ->
      let name_of i =
        match List.nth_opt s.gnames i with
        | Some (Some n) -> n ^ ":"
        | _ -> ""
      in
      let groups =
        String.concat "|"
          (List.mapi
             (fun i g ->
               name_of i ^ String.concat "," (List.map string_of_int g))
             s.groups)
      in
      match s.until_ with
      | None -> clause "part %s@%d" groups s.from_
      | Some u -> clause "part %s@%d+%d" groups s.from_ (Sim_time.sub u s.from_))
    p.partitions;
  if p.gst_jitter > 0 then clause "gst+%d" p.gst_jitter;
  if Buffer.length buf = 0 then "none" else Buffer.contents buf

let pp ppf p = Fmt.string ppf (to_string p)

(* ----------------------------- of_string ------------------------------ *)

(* a range is expanded into a pid list, so its length is bounded *)
let max_range = 65536

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some v when v >= 0 -> Ok v
  | _ -> Fmt.kstr Result.error "%s: expected a non-negative integer, got %S" what s

let parse_endpoint what s =
  let s = String.trim s in
  if s = "*" then Ok None
  else Result.map Option.some (parse_int what s)

(* "0.25" / "1" / ".3" -> per mille *)
let parse_prob s =
  let s = String.trim s in
  let err () = Fmt.kstr Result.error "bad probability %S" s in
  match String.split_on_char '.' s with
  | [ whole ] -> (
      match int_of_string_opt whole with
      | Some 0 -> Ok 0
      | Some 1 -> Ok 1000
      | _ -> err ())
  | [ whole; frac ] -> (
      let whole = if whole = "" then "0" else whole in
      if String.length frac = 0 || String.length frac > 3 then err ()
      else
        match (int_of_string_opt whole, int_of_string_opt frac) with
        | Some w, Some f when w = 0 || (w = 1 && f = 0) ->
            let scale =
              match String.length frac with 1 -> 100 | 2 -> 10 | _ -> 1
            in
            Ok ((w * 1000) + (f * scale))
        | _ -> err ())
  | _ -> err ()

(* "AT" or "AT+DUR" -> (at, until option) *)
let parse_window what s =
  let ( let* ) = Result.bind in
  match String.split_on_char '+' s with
  | [ at ] ->
      let* at = parse_int what at in
      Ok (at, None)
  | [ at; dur ] ->
      let* at = parse_int what at in
      let* dur = parse_int what dur in
      if dur = 0 then Fmt.kstr Result.error "%s: zero duration" what
      else Ok (at, Some (Sim_time.add at dur))
  | _ -> Fmt.kstr Result.error "%s: expected AT or AT+DUR, got %S" what s

let split_fields s =
  String.split_on_char ' ' (String.trim s)
  |> List.filter (fun f -> f <> "")

let parse_clause plan clause =
  let ( let* ) = Result.bind in
  match split_fields clause with
  | [] -> Ok plan
  | [ ("drop" | "dup" | "corrupt") as kind; link; prob ] ->
      let* src, dst =
        match String.split_on_char '>' link with
        | [ s; d ] ->
            let* src = parse_endpoint (kind ^ " src") s in
            let* dst = parse_endpoint (kind ^ " dst") d in
            Ok (src, dst)
        | _ -> Fmt.kstr Result.error "%s: expected SRC>DST, got %S" kind link
      in
      let* pm = parse_prob prob in
      let rule =
        {
          src;
          dst;
          drop_pm = (if kind = "drop" then pm else 0);
          dup_pm = (if kind = "dup" then pm else 0);
          corrupt_pm = (if kind = "corrupt" then pm else 0);
        }
      in
      Ok { plan with links = plan.links @ [ rule ] }
  | [ "crash"; spec ] ->
      let* pid, window =
        match String.split_on_char '@' spec with
        | [ pid; w ] ->
            let* pid = parse_int "crash pid" pid in
            Ok (pid, w)
        | _ -> Fmt.kstr Result.error "crash: expected PID@AT[+DUR], got %S" spec
      in
      let* at, recover_at = parse_window "crash" window in
      Ok { plan with crashes = plan.crashes @ [ { pid; at; recover_at } ] }
  | [ "part"; spec ] ->
      let* groups_s, window =
        match String.split_on_char '@' spec with
        | [ g; w ] -> Ok (g, w)
        | _ ->
            Fmt.kstr Result.error "part: expected GROUPS@AT[+DUR], got %S" spec
      in
      let* named_groups =
        (* each group is [NAME:]MEMBERS; members are pids or LO-HI ranges
           (parse-only sugar — the canonical form lists every pid) *)
        let parse_member m =
          let m = String.trim m in
          match String.index_opt m '-' with
          | None -> Result.map (fun v -> [ v ]) (parse_int "part member" m)
          | Some i ->
              let* lo =
                parse_int "part range low" (String.sub m 0 i)
              in
              let* hi =
                parse_int "part range high"
                  (String.sub m (i + 1) (String.length m - i - 1))
              in
              if hi < lo then
                Fmt.kstr Result.error "part: empty range %d-%d" lo hi
              else if hi - lo >= max_range then
                Fmt.kstr Result.error "part: range %d-%d spans more than %d pids"
                  lo hi max_range
              else Ok (List.init (hi - lo + 1) (fun k -> lo + k))
        in
        let parse_group g =
          let* name, members_s =
            match String.index_opt g ':' with
            | None -> Ok (None, g)
            | Some i ->
                let n = String.sub g 0 i in
                if valid_group_name n then
                  Ok (Some n, String.sub g (i + 1) (String.length g - i - 1))
                else Fmt.kstr Result.error "part: bad group name %S" n
          in
          let rec ints acc = function
            | [] -> Ok (List.rev acc)
            | m :: ms ->
                Result.bind (parse_member m) (fun vs ->
                    ints (List.rev_append vs acc) ms)
          in
          let* members = ints [] (String.split_on_char ',' members_s) in
          Ok (name, members)
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | g :: rest -> (
              match parse_group g with
              | Ok ng -> go (ng :: acc) rest
              | Error _ as e -> e)
        in
        go [] (String.split_on_char '|' groups_s)
      in
      let* () =
        if List.length named_groups < 2 then
          Fmt.kstr Result.error "part: needs at least two |-separated groups"
        else Ok ()
      in
      let* from_, until_ = parse_window "part" window in
      let groups = List.map snd named_groups in
      let gnames =
        let names = List.map fst named_groups in
        if List.for_all (( = ) None) names then [] else names
      in
      Ok
        { plan with
          partitions = plan.partitions @ [ { groups; gnames; from_; until_ } ]
        }
  | [ gst ] when String.length gst > 4 && String.sub gst 0 4 = "gst+" ->
      let* j = parse_int "gst" (String.sub gst 4 (String.length gst - 4)) in
      Ok { plan with gst_jitter = j }
  | _ -> Fmt.kstr Result.error "unrecognised clause %S" (String.trim clause)

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else
    List.fold_left
      (fun acc clause -> Result.bind acc (fun plan -> parse_clause plan clause))
      (Ok none)
      (String.split_on_char ';' s)

(* ------------------------------- random ------------------------------- *)

let random rng ~nprocs ~horizon =
  if nprocs < 1 then invalid_arg "Fault_plan.random: nprocs must be >= 1";
  let half = Stdlib.max 1 (horizon / 2) in
  let endpoint () =
    if Rng.bool rng then None else Some (Rng.int rng nprocs)
  in
  let links =
    List.init
      (Rng.int rng 4)
      (fun _ ->
        let kind = Rng.int rng 3 in
        let pm = 1 + Rng.int rng 300 in
        {
          src = endpoint ();
          dst = endpoint ();
          drop_pm = (if kind = 0 then pm else 0);
          dup_pm = (if kind = 1 then pm else 0);
          corrupt_pm = (if kind = 2 then pm else 0);
        })
  in
  let crashes =
    let n = Rng.int rng 3 in
    let pids = Array.init nprocs Fun.id in
    Rng.shuffle rng pids;
    List.init
      (Stdlib.min n nprocs)
      (fun k ->
        let at = Rng.int rng half in
        let recover_at =
          if Rng.bool rng then Some (Sim_time.add at (1 + Rng.int rng half))
          else None
        in
        { pid = pids.(k); at; recover_at })
  in
  let partitions =
    if nprocs >= 2 && Rng.int rng 3 = 0 then begin
      let pids = Array.init nprocs Fun.id in
      Rng.shuffle rng pids;
      if nprocs >= 6 then begin
        (* room for the generalized shapes: 2–3 blocks, sometimes named.
           Smaller systems keep the historical two-block draw sequence so
           seeded chaos/hunt transcripts stay byte-identical. *)
        let blocks = 2 + Rng.int rng 2 in
        let rec cuts acc lo remaining =
          if remaining = 1 then List.rev (nprocs :: acc)
          else
            let c = lo + 1 + Rng.int rng (nprocs - (remaining - 1) - lo) in
            cuts (c :: acc) c (remaining - 1)
        in
        let bounds = cuts [] 0 blocks in
        let groups =
          List.rev
            (fst
               (List.fold_left
                  (fun (acc, lo) hi ->
                    let g =
                      List.sort compare
                        (Array.to_list (Array.sub pids lo (hi - lo)))
                    in
                    (g :: acc, hi))
                  ([], 0) bounds))
        in
        let gnames =
          if Rng.bool rng then
            List.mapi (fun i _ -> Some (Printf.sprintf "g%d" i)) groups
          else []
        in
        let from_ = Rng.int rng half in
        let until_ =
          if Rng.bool rng then Some (Sim_time.add from_ (1 + Rng.int rng half))
          else None
        in
        [ { groups; gnames; from_; until_ } ]
      end
      else begin
        let cut = 1 + Rng.int rng (nprocs - 1) in
        let left = Array.to_list (Array.sub pids 0 cut) in
        let right = Array.to_list (Array.sub pids cut (nprocs - cut)) in
        let from_ = Rng.int rng half in
        let until_ =
          if Rng.bool rng then Some (Sim_time.add from_ (1 + Rng.int rng half))
          else None
        in
        [ { groups = [ List.sort compare left; List.sort compare right ];
            gnames = [];
            from_;
            until_;
          } ]
      end
    end
    else []
  in
  let gst_jitter = if Rng.int rng 4 = 0 then Rng.int rng 500 else 0 in
  { links; crashes; partitions; gst_jitter }
