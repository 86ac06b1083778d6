(* Instrument handles are bare atomic cells so the hot path compiles to a
   lock-free read-modify-write: no closure, no option, no boxing beyond
   the one-time [Atomic.make] at registration. Families own their
   children; the registry owns the families. Lookup cost is paid at
   registration time only.

   Domain-safety: the registry is shared by every domain of a fleet run
   (lib/fleet). The cold path — registration, snapshot, reset — takes one
   global mutex; the hot path never does. Counter and histogram updates
   are atomic fetch-and-add, so concurrent engine runs lose no counts and
   sums stay exact regardless of interleaving. Gauge [set] is a plain
   atomic store: concurrent setters race by design (last write wins), so
   point-in-time gauges from parallel runs are best-effort. *)

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  bounds : int array; (* strictly increasing upper bounds; +Inf implicit *)
  counts : int Atomic.t array; (* length = Array.length bounds + 1 *)
  h_sum : int Atomic.t;
  h_count : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

type family = {
  f_name : string;
  f_help : string;
  f_kind : [ `Counter | `Gauge | `Histogram ];
  f_buckets : int array; (* [||] unless histogram *)
  children : (string, instrument) Hashtbl.t; (* key: canonical label string *)
  mutable rev_child_order : (string * (string * string) list) list;
  mutable overflow : ((string * string) list * instrument) option;
}

type t = {
  by_name : (string, family) Hashtbl.t;
  mutable rev_families : family list;
}

(* One lock for every registry: registration is rare (per-run, not
   per-event) and a shared lock keeps the cold path trivially correct. *)
let registry_mutex = Mutex.create ()

let locked f = Mutex.protect registry_mutex f

let cardinality_cap = 64

let log_buckets =
  (* 1-2-5 ladder over seven decades: fine enough for per-hop delays,
     wide enough for end-to-end payment horizons. *)
  let decades = 7 in
  let b = Array.make (3 * decades) 0 in
  let scale = ref 1 in
  for d = 0 to decades - 1 do
    b.(3 * d) <- !scale;
    b.((3 * d) + 1) <- 2 * !scale;
    b.((3 * d) + 2) <- 5 * !scale;
    scale := !scale * 10
  done;
  b

let create () = { by_name = Hashtbl.create 32; rev_families = [] }
let default = create ()

(* One entry, swapped whole: a hit is one atomic read and a physical
   comparison. Domains racing on a miss resolve equal handles, since
   registration is idempotent. *)
let memo resolve =
  let last = Atomic.make None in
  fun reg ->
    match Atomic.get last with
    | Some (r, handles) when r == reg -> handles
    | Some _ | None ->
        let handles = resolve reg in
        Atomic.set last (Some (reg, handles));
        handles

(* --------------------------- name validation -------------------------- *)

let name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let validate_name s =
  if not (name_ok s) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" s)

let validate_label_name s =
  if not (name_ok s) || String.contains s ':' then
    invalid_arg (Printf.sprintf "Metrics: invalid label name %S" s);
  if String.length s >= 2 && s.[0] = '_' && s.[1] = '_' then
    invalid_arg (Printf.sprintf "Metrics: reserved label name %S" s)

(* ------------------------------ labels -------------------------------- *)

let canonical labels =
  let sorted =
    List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels
  in
  if List.length sorted <> List.length labels then
    invalid_arg "Metrics: duplicate label name";
  List.iter (fun (k, _) -> validate_label_name k) sorted;
  sorted

let label_key labels =
  String.concat "\x00"
    (List.concat_map (fun (k, v) -> [ k; v ]) labels)

let overflow_labels = [ ("overflow", "true") ]

(* ----------------------------- families ------------------------------- *)

let kind_name = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

let family t ~name ~help ~kind ~buckets =
  validate_name name;
  match Hashtbl.find_opt t.by_name name with
  | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s re-registered as %s (was %s)" name
             (kind_name kind) (kind_name f.f_kind));
      if kind = `Histogram && f.f_buckets <> buckets then
        invalid_arg
          (Printf.sprintf "Metrics: %s re-registered with different buckets"
             name);
      f
  | None ->
      (if kind = `Histogram then
         let n = Array.length buckets in
         if n = 0 then invalid_arg "Metrics: empty bucket array";
         for i = 1 to n - 1 do
           if buckets.(i) <= buckets.(i - 1) then
             invalid_arg "Metrics: bucket bounds must be strictly increasing"
         done);
      let f =
        {
          f_name = name;
          f_help = help;
          f_kind = kind;
          f_buckets = buckets;
          children = Hashtbl.create 8;
          rev_child_order = [];
          overflow = None;
        }
      in
      Hashtbl.add t.by_name name f;
      t.rev_families <- f :: t.rev_families;
      f

let fresh_instrument f =
  match f.f_kind with
  | `Counter -> C (Atomic.make 0)
  | `Gauge -> G (Atomic.make 0)
  | `Histogram ->
      H
        {
          bounds = f.f_buckets;
          counts = Array.init (Array.length f.f_buckets + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0;
          h_count = Atomic.make 0;
        }

let child f labels =
  let labels = canonical labels in
  let key = label_key labels in
  match Hashtbl.find_opt f.children key with
  | Some i -> i
  | None ->
      if Hashtbl.length f.children >= cardinality_cap then (
        (* past the cap every new label set lands in one shared child:
           bounded memory, degraded (but not lost) signal *)
        match f.overflow with
        | Some (_, i) -> i
        | None ->
            let i = fresh_instrument f in
            f.overflow <- Some (overflow_labels, i);
            i)
      else begin
        let i = fresh_instrument f in
        Hashtbl.add f.children key i;
        f.rev_child_order <- (key, labels) :: f.rev_child_order;
        i
      end

let counter t ?(help = "") ?(labels = []) name =
  locked (fun () ->
      match
        child (family t ~name ~help ~kind:`Counter ~buckets:[||]) labels
      with
      | C c -> c
      | _ -> assert false)

let gauge t ?(help = "") ?(labels = []) name =
  locked (fun () ->
      match child (family t ~name ~help ~kind:`Gauge ~buckets:[||]) labels with
      | G g -> g
      | _ -> assert false)

let histogram t ?(help = "") ?(buckets = log_buckets) ?(labels = []) name =
  locked (fun () ->
      match child (family t ~name ~help ~kind:`Histogram ~buckets) labels with
      | H h -> h
      | _ -> assert false)

(* ------------------------------ hot path ------------------------------ *)

let inc c = Atomic.incr c

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  ignore (Atomic.fetch_and_add c n)

let set g v = Atomic.set g v
let gauge_add g d = ignore (Atomic.fetch_and_add g d)

let observe h v =
  (* index of the first bound >= v, i.e. the bucket v falls in; the +Inf
     bucket is index [Array.length bounds] *)
  let bounds = h.bounds in
  let n = Array.length bounds in
  let i =
    if v > Array.unsafe_get bounds (n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Array.unsafe_get bounds mid < v then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  Atomic.incr (Array.unsafe_get h.counts i);
  ignore (Atomic.fetch_and_add h.h_sum v);
  Atomic.incr h.h_count

(* ------------------------------ reading ------------------------------- *)

let histogram_buckets h =
  let acc = ref 0 in
  let cumulative =
    Array.to_list
      (Array.mapi
         (fun i n ->
           acc := !acc + Atomic.get n;
           let bound =
             if i < Array.length h.bounds then h.bounds.(i) else max_int
           in
           (bound, !acc))
         h.counts)
  in
  cumulative

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { sum : int; count : int; buckets : (int * int) list }

type sample = {
  s_name : string;
  s_help : string;
  s_kind : [ `Counter | `Gauge | `Histogram ];
  s_labels : (string * string) list;
  s_value : value;
}

let value_of = function
  | C c -> Counter_v (Atomic.get c)
  | G g -> Gauge_v (Atomic.get g)
  | H h ->
      Histogram_v
        {
          sum = Atomic.get h.h_sum;
          count = Atomic.get h.h_count;
          buckets = histogram_buckets h;
        }

let snapshot t =
  locked (fun () ->
      List.concat_map
        (fun f ->
          let children =
            List.rev_map
              (fun (key, labels) -> (labels, Hashtbl.find f.children key))
              f.rev_child_order
          in
          let children =
            match f.overflow with
            | Some (labels, i) -> children @ [ (labels, i) ]
            | None -> children
          in
          List.map
            (fun (labels, i) ->
              {
                s_name = f.f_name;
                s_help = f.f_help;
                s_kind = f.f_kind;
                s_labels = labels;
                s_value = value_of i;
              })
            children)
        (List.rev t.rev_families))

let families t =
  locked (fun () ->
      List.rev_map
        (fun f -> (f.f_name, kind_name f.f_kind, f.f_help))
        t.rev_families)

let reset_instrument = function
  | C c -> Atomic.set c 0
  | G g -> Atomic.set g 0
  | H h ->
      Array.iter (fun c -> Atomic.set c 0) h.counts;
      Atomic.set h.h_sum 0;
      Atomic.set h.h_count 0

let reset t =
  locked (fun () ->
      List.iter
        (fun f ->
          Hashtbl.iter (fun _ i -> reset_instrument i) f.children;
          match f.overflow with
          | Some (_, i) -> reset_instrument i
          | None -> ())
        t.rev_families)

(* ------------------------------- JSON ---------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"labels\":{"
           (json_escape s.s_name) (kind_name s.s_kind));
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        s.s_labels;
      Buffer.add_string buf "},";
      (match s.s_value with
      | Counter_v v | Gauge_v v ->
          Buffer.add_string buf (Printf.sprintf "\"value\":%d" v)
      | Histogram_v { sum; count; buckets } ->
          Buffer.add_string buf
            (Printf.sprintf "\"sum\":%d,\"count\":%d,\"buckets\":[" sum count);
          List.iteri
            (fun j (bound, cum) ->
              if j > 0 then Buffer.add_char buf ',';
              if bound = max_int then
                Buffer.add_string buf (Printf.sprintf "[null,%d]" cum)
              else Buffer.add_string buf (Printf.sprintf "[%d,%d]" bound cum))
            buckets;
          Buffer.add_char buf ']');
      Buffer.add_char buf '}')
    (snapshot t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
