(** A process-wide memo: an immutable map published through an
    [Atomic], for values that many runs share and that are costly to
    build (compiled templates, resolved metric handles).

    Safe from several domains. A lookup is one atomic read and a map
    search; domains racing on a missing key each build a value, and a
    compare-and-set loop keeps whichever map lands, so only a value
    that every build of a key makes equal (or equivalent) belongs
    here. *)

val find_or_add :
  ('k -> 'm -> 'v option) ->
  ('k -> 'v -> 'm -> 'm) ->
  'm Atomic.t ->
  'k ->
  (unit -> 'v) ->
  'v
(** [find_or_add find add memo key build] is the value bound to [key] in
    the map [memo] holds (read with [find]), or else [build ()], bound
    to [key] with [add] and published. *)
