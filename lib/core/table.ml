type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~title ~header ?(notes = []) rows =
  List.iteri
    (fun i row ->
      if List.length row <> List.length header then
        invalid_arg
          (Printf.sprintf "Table.make (%s): row %d has %d cells, header has %d"
             title i (List.length row) (List.length header)))
    rows;
  { title; header; rows; notes }

let cell_f x = Printf.sprintf "%.1f" x
let cell_pct x = Printf.sprintf "%.1f%%" x
let cell_i = string_of_int
let cell_b b = if b then "yes" else "no"

let render ppf t =
  let cols = List.length t.header in
  let width = Array.make cols 0 in
  let measure row =
    List.iteri (fun i c -> width.(i) <- max width.(i) (String.length c)) row
  in
  measure t.header;
  List.iter measure t.rows;
  let pad i c = c ^ String.make (width.(i) - String.length c) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  Fmt.pf ppf "@[<v>== %s ==@," t.title;
  Fmt.pf ppf "%s@," (line t.header);
  let total = List.fold_left (fun acc w -> acc + w + 2) (-2) (Array.to_list width) in
  Fmt.pf ppf "%s@," (String.make (max 1 total) '-');
  List.iter (fun row -> Fmt.pf ppf "%s@," (line row)) t.rows;
  List.iter (fun n -> Fmt.pf ppf "note: %s@," n) t.notes;
  Fmt.pf ppf "@]"
