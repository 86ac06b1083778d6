let find_or_add find add memo key build =
  match find key (Atomic.get memo) with
  | Some v -> v
  | None ->
      let v = build () in
      let rec publish () =
        let m = Atomic.get memo in
        if not (Atomic.compare_and_set memo m (add key v m)) then publish ()
      in
      publish ();
      v
