(* A binary min-heap held as parallel arrays: slot [i] is the event
   ([times.(i)], [seqs.(i)], [payloads.(i)]). A push writes three slots and
   allocates nothing until the arrays double. Payloads are stored as
   [Obj.t] so a vacated slot can be overwritten with an immediate: a popped
   payload is then unreachable from the queue, and a float payload cannot
   turn the array into an unboxed float array. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let vacant = Obj.repr 0

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length q = q.size
let is_empty q = q.size = 0

let grow q =
  let cap = Stdlib.max 16 (2 * q.size) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap vacant in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.payloads 0 payloads 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.payloads <- payloads

let[@inline] move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.payloads.(dst) <- q.payloads.(src)

let push q ~time payload =
  if q.size = Array.length q.times then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  (* Sift a hole up from the end. [seq] is the largest sequence number in
     the heap, so the new event precedes a parent only on a strictly
     earlier time. *)
  let i = ref q.size in
  q.size <- q.size + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    time < q.times.(parent)
  do
    let parent = (!i - 1) / 2 in
    move q ~src:parent ~dst:!i;
    i := parent
  done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.payloads.(!i) <- Obj.repr payload

let[@inline] before q i ~time ~seq =
  let ti = q.times.(i) in
  ti < time || (ti = time && q.seqs.(i) < seq)

let reserve q n =
  if n < 0 then invalid_arg "Event_queue.reserve: negative count";
  let first = q.next_seq in
  q.next_seq <- first + n;
  first

let push_reserved q ~time ~seq payload =
  if seq < 0 || seq >= q.next_seq then
    invalid_arg "Event_queue.push_reserved: sequence number not reserved";
  if q.size = Array.length q.times then grow q;
  (* an older sequence number may tie a parent's time and still precede
     it, so the sift compares (time, seq) in full *)
  let i = ref q.size in
  q.size <- q.size + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    not (before q parent ~time ~seq)
  do
    let parent = (!i - 1) / 2 in
    move q ~src:parent ~dst:!i;
    i := parent
  done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.payloads.(!i) <- Obj.repr payload

let min_time q =
  if q.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  q.times.(0)

let pop_min q =
  if q.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = Obj.obj q.payloads.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    (* Sift a hole down from the root, then drop the last event into it. *)
    let time = q.times.(last) and seq = q.seqs.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before q r ~time:q.times.(l) ~seq:q.seqs.(l) then r
          else l
        in
        if before q c ~time ~seq then begin
          move q ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    q.times.(!i) <- time;
    q.seqs.(!i) <- seq;
    q.payloads.(!i) <- q.payloads.(last)
  end;
  q.payloads.(last) <- vacant;
  top

let pop q =
  if q.size = 0 then None
  else
    let time = q.times.(0) in
    Some (time, pop_min q)

