(** Runtime verification of the escrow promises G(d) and P(a).

    The paper's protocol correctness rests on two signed promises, both
    stated in the {e issuing escrow's local time}:

    - [G(d)]: "I guarantee that if I receive $ from you at my local time w,
      then I will send you either $ or χ by my local time w + d."
    - [P(a)]: "I promise that if I receive χ from you at my time v, with
      v < now + a, then I will send you $ by my local time v + ε."

    These monitors replay a run's trace against the promises the escrows
    {e actually issued} (the d and a are read out of the signed promise
    messages, not out of the configuration), converting global trace
    timestamps into each escrow's local clock. An honest escrow must never
    breach a promise it issued — that is the operational content of
    property C for escrows — while Byzantine strategies such as the
    premature refunder are caught red-handed. *)

type breach = {
  escrow : int;  (** pid *)
  promise : string;  (** "G" or "P" *)
  detail : string;
}

val breaches : Payment_props.run_view -> breach list
(** Every promise breach in the run, by any escrow. The ε used for P is
    the run's derived [Params.epsilon]. *)

val pp_breach : Format.formatter -> breach -> unit
