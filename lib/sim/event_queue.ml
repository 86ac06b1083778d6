(* A binary min-heap held as parallel arrays: slot [i] is the event
   ([times.(i)], [seqs.(i)], [payloads.(i)]), and [hands.(i)] its handle,
   or [-1] for an event pushed without one. A push writes four slots and
   allocates nothing until the arrays double. Payloads are stored as
   [Obj.t] so a vacated slot can be overwritten with an immediate: a popped
   payload is then unreachable from the queue, and a float payload cannot
   turn the array into an unboxed float array.

   A handle indexes [slot_of], which every move keeps pointing at the
   handle's heap slot. The free handles form a stack threaded through the
   same array: [free] is the top ([-1] when none is free), and a free
   handle [h] holds [-2 - next], the one below it, so every free entry is
   negative. Taking and returning a handle allocates nothing. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable hands : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable slot_of : int array;
  mutable free : int;
}

type handle = int

let vacant = Obj.repr 0

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    hands = [||];
    size = 0;
    next_seq = 0;
    slot_of = [||];
    free = -1;
  }

let length q = q.size
let is_empty q = q.size = 0

let extend a ~cap ~len fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 len;
  b

let grow q =
  let cap = Stdlib.max 16 (2 * q.size) and len = q.size in
  q.times <- extend q.times ~cap ~len 0;
  q.seqs <- extend q.seqs ~cap ~len 0;
  q.payloads <- extend q.payloads ~cap ~len vacant;
  q.hands <- extend q.hands ~cap ~len (-1)

let[@inline] move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.payloads.(dst) <- q.payloads.(src);
  let h = q.hands.(src) in
  q.hands.(dst) <- h;
  if h >= 0 then q.slot_of.(h) <- dst

let[@inline] place q i ~time ~seq ~hand payload =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.payloads.(i) <- payload;
  q.hands.(i) <- hand;
  if hand >= 0 then q.slot_of.(hand) <- i

let[@inline] before q i ~time ~seq =
  let ti = q.times.(i) in
  ti < time || (ti = time && q.seqs.(i) < seq)

(* Sift a hole at [i] up to where an event keyed (time, seq) belongs and
   return that slot. *)
let sift_up q i ~time ~seq =
  let i = ref i in
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
  !i

(* Sift a hole at [i] down, among the first [q.size] slots, to where an
   event keyed (time, seq) belongs and return that slot. *)
let sift_down q i ~time ~seq =
  let n = q.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && before q r ~time:q.times.(l) ~seq:q.seqs.(l) then r else l
      in
      if before q c ~time ~seq then begin
        move q ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  !i

let insert q ~time ~seq ~hand payload =
  if q.size = Array.length q.times then grow q;
  let hole = q.size in
  q.size <- hole + 1;
  let i = sift_up q hole ~time ~seq in
  place q i ~time ~seq ~hand (Obj.repr payload)

let fresh_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let push q ~time payload =
  insert q ~time ~seq:(fresh_seq q) ~hand:(-1) payload

let take_handle q =
  if q.free < 0 then begin
    (* every handle is in use: double the handle space and stack the new
       half so that it is taken in ascending order *)
    let used = Array.length q.slot_of in
    let cap = Stdlib.max 16 (2 * used) in
    let slot_of = extend q.slot_of ~cap ~len:used (-1) in
    for h = used to cap - 2 do
      slot_of.(h) <- -2 - (h + 1)
    done;
    q.slot_of <- slot_of;
    q.free <- used
  end;
  let h = q.free in
  q.free <- -2 - q.slot_of.(h);
  h

let release_handle q h =
  q.slot_of.(h) <- -2 - q.free;
  q.free <- h

let push_removable q ~time payload =
  let h = take_handle q in
  insert q ~time ~seq:(fresh_seq q) ~hand:h payload;
  h

let reserve q n =
  if n < 0 then invalid_arg "Event_queue.reserve: negative count";
  let first = q.next_seq in
  q.next_seq <- first + n;
  first

let push_reserved q ~time ~seq payload =
  if seq < 0 || seq >= q.next_seq then
    invalid_arg "Event_queue.push_reserved: sequence number not reserved";
  insert q ~time ~seq ~hand:(-1) payload

let min_time q =
  if q.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  q.times.(0)

(* Take the event at slot [i] out of the heap: the last event fills the
   hole, sifted up or down to where it belongs. *)
let delete q i =
  let h = q.hands.(i) in
  if h >= 0 then release_handle q h;
  let last = q.size - 1 in
  q.size <- last;
  if i < last then begin
    let time = q.times.(last) and seq = q.seqs.(last) in
    let hand = q.hands.(last) and payload = q.payloads.(last) in
    let j =
      if i > 0 && not (before q ((i - 1) / 2) ~time ~seq) then
        sift_up q i ~time ~seq
      else sift_down q i ~time ~seq
    in
    place q j ~time ~seq ~hand payload
  end;
  q.payloads.(last) <- vacant;
  q.hands.(last) <- -1

let pop_min q =
  if q.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = Obj.obj q.payloads.(0) in
  delete q 0;
  top

let pop q =
  if q.size = 0 then None
  else
    let time = q.times.(0) in
    Some (time, pop_min q)

let remove q h =
  let i = if h >= 0 && h < Array.length q.slot_of then q.slot_of.(h) else -1 in
  if i < 0 then invalid_arg "Event_queue.remove: handle not queued";
  delete q i
