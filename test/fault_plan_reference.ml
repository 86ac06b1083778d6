(* Fault_plan.validate as it was written before it was made
   allocation-free: a chain of Result binds with Hashtbl duplicate
   checks. Kept as the reference the rewrite is held to, error string for
   error string (see test_faults.ml). *)

open Faults.Fault_plan
module Sim_time = Sim.Sim_time

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

