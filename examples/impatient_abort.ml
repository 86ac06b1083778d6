(* The weak protocol of Theorem 3 under partial synchrony.

   Two runs over the same slow network (GST = 2000 ticks):
   - an impatient Alice (patience 300) aborts: the transaction manager
     issues the abort certificate χa, every deposit is refunded, and
     nobody loses money — "each customer can, at any moment of their
     choice, lose patience and abort the transaction, without a risk of
     losing value";
   - a patient Alice (patience 50_000) outlasts the network turbulence:
     the TM collects every funded report and commits, and Bob is paid.

   Run with:  dune exec examples/impatient_abort.exe *)

let run ~patience ~label =
  let result =
    Xchain.Api.pay ~hops:3
      ~network:(Xchain.Api.Partially_synchronous { gst = 2000 })
      ~protocol:
        (Protocols.Runner.Weak
           { Protocols.Weak_protocol.default_config with patience })
      ~seed:7 ()
  in
  Fmt.pr "--- %s (patience = %d) ---@.%a@.@." label patience
    Xchain.Api.pp_result result;
  result

let () =
  let aborted = run ~patience:300 ~label:"impatient Alice" in
  let succeeded = run ~patience:50_000 ~label:"patient Alice" in
  (* The impatient run must be safe (no value lost) even though it failed;
     the patient run must succeed outright. *)
  if aborted.Xchain.Api.success then begin
    Fmt.pr "unexpected: impatient run still succeeded@.";
    exit 1
  end;
  if not aborted.Xchain.Api.all_properties_hold then exit 1;
  if not succeeded.Xchain.Api.success then exit 1;
  Fmt.pr "Weak liveness in action: success is conditional on patience, \
          safety is not.@."
