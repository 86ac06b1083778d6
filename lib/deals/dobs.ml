(** Observations emitted by deal protocol participants. *)

type t =
  | Escrowed of { arc : int; party : int; asset : Ledger.Asset.t }
  | Paid_out of { arc : int; to_ : int; asset : Ledger.Asset.t }
  | Refunded of { arc : int; to_ : int; asset : Ledger.Asset.t }
  | Cb_decided of { commit : bool }
  | Terminated of { pid : int; outcome : string }
  | Rejected of { pid : int; what : string }
