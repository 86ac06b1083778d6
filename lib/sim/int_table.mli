(** Hash tables keyed by int.

    The simulator's keys (pids, payment and instance ids, committee slots
    and items, Auth identities) are small non-negative ints handed out in
    order, so the identity spreads them over the buckets: a lookup runs
    no polymorphic hash and allocates nothing. *)

include Hashtbl.S with type key = int
