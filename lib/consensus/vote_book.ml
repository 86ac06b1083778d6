open Xcrypto

(* One (round, value) and its running tally. [sigs.(i)] is replica
   [i]'s signature when [present.(i)]; the array starts filled with the
   bucket's first vote, so storing one allocates nothing. *)
type ('v, 'body) bucket = {
  round : int;
  value : 'v;
  sigs : 'body Auth.signed array;
  present : bool array;
  mutable quorum : bool;
}

type ('v, 'body) t = {
  qs : Quorum_system.t;
  auth_ids : int array;
  registry : Auth.registry;
  equal : 'v -> 'v -> bool;
  put : Bytes.t -> 'body -> int;
  mutable buckets : ('v, 'body) bucket list;
}

type 'body tally =
  | Dropped
  | Counted
  | Reached of 'body Auth.signed list
  | Past_quorum

let create ~qs ~auth_ids ~registry ~equal ~put =
  { qs; auth_ids; registry; equal; put; buckets = [] }

(* Quorum membership is index-based (weighted and grid systems care
   which replica signed, not just how many), so every signature set is
   reduced to a presence vector before asking the quorum system. *)
let rec index_from auth_ids author i =
  if i >= Array.length auth_ids then -1
  else if auth_ids.(i) = author then i
  else index_from auth_ids author (i + 1)

let replica_index auth_ids author = index_from auth_ids author 0

let rec find t round value = function
  | [] -> raise_notrace Not_found
  | b :: rest ->
      if b.round = round && t.equal b.value value then b
      else find t round value rest

(* the quorum's signatures in replica order *)
let signatures b =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if b.present.(i) then b.sigs.(i) :: acc else acc)
  in
  go (Array.length b.sigs - 1) []

(* count a verified vote of replica [i] *)
let count t b i sv =
  b.sigs.(i) <- sv;
  if b.quorum then Past_quorum
  else if b.present.(i) then Counted
  else begin
    b.present.(i) <- true;
    if Quorum_system.is_quorum t.qs ~present:b.present then begin
      b.quorum <- true;
      Reached (signatures b)
    end
    else Counted
  end

(* A vote is checked against its own statement, written and hashed in
   place, before its bucket is looked up, so a bucket is only opened by a
   vote that verifies. *)
let record t ~round ~value (sv : _ Auth.signed) =
  let i = replica_index t.auth_ids sv.Auth.author in
  if i < 0 || not (Auth.verify_value t.registry ~put:t.put sv) then Dropped
  else
    match find t round value t.buckets with
    | b -> count t b i sv
    | exception Not_found ->
        let n = Array.length t.auth_ids in
        let b =
          {
            round;
            value;
            sigs = Array.make n sv;
            present = Array.make n false;
            quorum = false;
          }
        in
        t.buckets <- b :: t.buckets;
        count t b i sv

let holds t ~round value =
  List.exists
    (fun b -> b.quorum && b.round = round && t.equal b.value value)
    t.buckets

let clear t = t.buckets <- []
