(* Inputs for the one-line grammars (workload, fault plan, topology,
   protocol names, --fault specs): arbitrary strings over the grammars'
   own alphabet and valid strings damaged by a few random edits. Every
   [of_string] must answer [Ok] or [Error] to all of them and never
   raise; a printer and its parser must round-trip. *)

let alphabet = "0123456789:;,.=>|@+-* _abcgkmnprstxyzAZ\t#"

(* splices that tend to reach conversion and range checks *)
let splices =
  [| "-"; "*"; "1e9"; "0.5"; ":"; ";"; "="; ",,"; "|"; "@"; "+"; " " |]

let numbers =
  [| "99999999999999999999"; "4611686018427387903"; "-1"; "0"; "1"; "65536" |]

let char_gen =
  QCheck.Gen.map (String.get alphabet)
    (QCheck.Gen.int_bound (String.length alphabet - 1))

(* start offsets and lengths of the maximal digit runs of [s] *)
let numbers_in s =
  let n = String.length s in
  let is_digit j = s.[j] >= '0' && s.[j] <= '9' in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_digit i then begin
      let j = ref i in
      while !j < n && is_digit !j do incr j done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let all_edits =
  [ (1, `Delete); (1, `Insert); (1, `Replace); (1, `Splice); (3, `Number);
    (1, `Truncate); (1, `Repeat) ]

let edit ?(ops = all_edits) ?(splices = splices) s =
  let open QCheck.Gen in
  let n = String.length s in
  let* op = frequencyl ops in
  let* i = int_bound n in
  let* c = char_gen in
  let* splice = oneofa splices in
  let* number = oneofa numbers in
  let runs = numbers_in s in
  let* run = if runs = [] then return (0, 0) else oneofl runs in
  let before = String.sub s 0 i and after = String.sub s i (n - i) in
  let rest_from j = String.sub s j (n - j) in
  return
    (match op with
    | `Delete when i < n -> before ^ rest_from (i + 1)
    | `Insert -> before ^ String.make 1 c ^ after
    | `Replace when i < n -> before ^ String.make 1 c ^ rest_from (i + 1)
    | `Splice -> before ^ splice ^ after
    | `Number when runs <> [] ->
        (* swap a whole number: [hops=2] becomes [hops=4611686018427387903] *)
        let at, len = run in
        String.sub s 0 at ^ number ^ rest_from (at + len)
    | `Truncate -> before
    | _ -> before ^ after ^ after)

(* Number swaps and whitespace-free splices only: applied to the value of
   a key=value token, the edited token stays one token with the same key. *)
let value_edit s =
  edit ~ops:[ (1, `Splice); (3, `Number) ]
    ~splices:(Array.of_list (List.filter (( <> ) " ") (Array.to_list splices)))
    s

let mutated seeds =
  let open QCheck.Gen in
  let* s = oneofl seeds in
  let* k = int_range 1 4 in
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go k s

let arbitrary =
  QCheck.Gen.(
    frequency
      [
        (2, string_size ~gen:char_gen (0 -- 40));
        (1, string_size (0 -- 20));
      ])

(* Mostly mutated valid strings, which get past the first checks and so
   exercise the deeper ones; some arbitrary ones. *)
let inputs seeds =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(frequency [ (3, mutated seeds); (1, arbitrary) ])

(* The seeds themselves must parse, or the edits start from nowhere. *)
let property ~name ~seeds of_string =
  let seeds_valid =
    lazy (List.for_all (fun s -> Result.is_ok (of_string s)) seeds)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:3000 (inputs seeds) (fun s ->
         Lazy.force seeds_valid
         && match of_string s with Ok _ | Error _ -> true))

(* [of_string (to_string x) = Ok x] for every [x] drawn from [values];
   enough draws that each of a few hundred values is drawn w.h.p. *)
let round_trip ~name ~print values to_string of_string =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(max 3000 (20 * List.length values))
       (QCheck.make ~print (QCheck.Gen.oneofl values))
       (fun x -> of_string (to_string x) = Ok x))

(* Flag vectors for a command's front door: at most one value per flag,
   drawn from the valid [(flag, value)] pairs and sometimes damaged by
   [edit] (spaces included, so a value may look like several fields), in
   random order, with or without a --spec line mutated from [specs]. *)
let flag_vectors ~pairs ~specs =
  let open QCheck.Gen in
  let flags = List.sort_uniq compare (List.map fst pairs) in
  let value_of flag =
    let* v = oneofl (List.filter_map
                       (fun (f, v) -> if f = flag then Some v else None)
                       pairs) in
    frequency [ (2, return v); (1, edit v) ]
  in
  let* chosen =
    flatten_l
      (List.map
         (fun flag ->
           let* keep = bool in
           if keep then map (fun v -> Some (flag, v)) (value_of flag)
           else return None)
         flags)
  in
  let* given = shuffle_l (List.filter_map Fun.id chosen) in
  let* spec =
    frequency
      [ (1, return None); (1, map Option.some (oneofl specs));
        (1, map Option.some (mutated specs)) ]
  in
  return (spec, given)

(* [front_door ?spec flags] answers [Ok], or an [Error] that names where
   the bad field came from: a flag of the vector, --spec when one was
   given, or the whole-workload check ("bad workload: ..."). *)
let front_door_property ~name ~pairs ~specs front_door =
  let print (spec, given) =
    String.concat " "
      ((match spec with Some s -> [ Printf.sprintf "--spec %S" s ] | None -> [])
      @ List.map (fun (f, v) -> Printf.sprintf "%s %S" f v) given)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:3000
       (QCheck.make ~print (flag_vectors ~pairs ~specs))
       (fun (spec, given) ->
         match front_door ?spec given with
         | Ok _ -> true
         | Error e ->
             let names origin =
               String.starts_with ~prefix:("bad " ^ origin ^ ": ") e
             in
             (spec <> None && names "--spec")
             || List.exists (fun (flag, _) -> names flag) given
             || names "workload"
             || QCheck.Test.fail_reportf "error %S names no origin" e))
