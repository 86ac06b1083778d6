type 'msg t = {
  mutable srcs : int array;
  mutable msgs : 'msg array;
  mutable len : int;
  mutable hit : int;
}

type sender = One of int | Among of int array | Any

let create () = { srcs = [||]; msgs = [||]; len = 0; hit = -1 }
let length t = t.len

(* The slots keep the first one's message as filler, as [push] fills new
   ones, so a cleared pool holds on to at most that one of its old
   messages. *)
let clear t =
  let cap = Array.length t.msgs in
  if cap > 1 then Array.fill t.msgs 1 (cap - 1) t.msgs.(0);
  t.len <- 0;
  t.hit <- -1

let push t src m =
  if t.len = Array.length t.srcs then begin
    (* the first message doubles as the filler of the new slots *)
    let cap = max 2 (2 * t.len) in
    let srcs = Array.make cap 0 and msgs = Array.make cap m in
    Array.blit t.srcs 0 srcs 0 t.len;
    Array.blit t.msgs 0 msgs 0 t.len;
    t.srcs <- srcs;
    t.msgs <- msgs
  end;
  t.srcs.(t.len) <- src;
  t.msgs.(t.len) <- m;
  t.len <- t.len + 1

let admits from_ src =
  match from_ with One p -> p = src | Among pids -> Array.mem src pids | Any -> true

let rec scan t from_ accept inst i =
  if i >= t.len then false
  else if admits from_ t.srcs.(i) && accept inst t.msgs.(i) then begin
    t.hit <- i;
    true
  end
  else scan t from_ accept inst (i + 1)

let find t ~from_ ~accept inst = scan t from_ accept inst 0

let take_hit t =
  let i = t.hit in
  let m = t.msgs.(i) in
  let last = t.len - 1 in
  Array.blit t.srcs (i + 1) t.srcs i (last - i);
  Array.blit t.msgs (i + 1) t.msgs i (last - i);
  t.len <- last;
  t.hit <- -1;
  m
