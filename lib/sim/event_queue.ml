type 'a cell = { time : Sim_time.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a cell array; (* heap.(0) unused when empty *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length q = q.size
let is_empty q = q.size = 0

let before a b =
  let c = Sim_time.compare a.time b.time in
  if c <> 0 then c < 0 else a.seq < b.seq

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && before q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.size && before q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q ~time payload =
  let cell = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let nh = Array.make (max 16 (2 * q.size)) cell in
    Array.blit q.heap 0 nh 0 q.size;
    q.heap <- nh
  end;
  q.heap.(q.size) <- cell;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      sift_down q 0
    end;
    Some (top.time, top.payload)
  end

let peek_time q = if q.size = 0 then None else Some q.heap.(0).time
