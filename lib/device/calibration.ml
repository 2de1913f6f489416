type qubit = {
  t1_us : float;
  t2_us : float;
  error_1q : float;
  error_readout : float;
}

let default_qubit =
  { t1_us = 100.0; t2_us = 70.0; error_1q = 0.0; error_readout = 0.0 }

type t = {
  num_qubits : int;
  qubits : qubit array;
  link_errors : (int * int, float) Hashtbl.t;
}

let create n =
  if n < 0 then invalid_arg "Calibration.create: negative qubit count";
  {
    num_qubits = n;
    qubits = Array.make n default_qubit;
    link_errors = Hashtbl.create 32;
  }

let num_qubits c = c.num_qubits

let check_qubit c q name =
  if q < 0 || q >= c.num_qubits then
    invalid_arg
      (Printf.sprintf "Calibration.%s: qubit %d out of range [0, %d)" name q
         c.num_qubits)

let qubit c q =
  check_qubit c q "qubit";
  c.qubits.(q)

let set_qubit c q data =
  check_qubit c q "set_qubit";
  c.qubits.(q) <- data

let key u v = (min u v, max u v)

let link_error c u v =
  check_qubit c u "link_error";
  check_qubit c v "link_error";
  Hashtbl.find_opt c.link_errors (key u v)

let link_error_exn c u v =
  match link_error c u v with Some e -> e | None -> raise Not_found

let set_link_error c u v e =
  check_qubit c u "set_link_error";
  check_qubit c v "set_link_error";
  if u = v then invalid_arg "Calibration.set_link_error: self-link";
  if e < 0.0 || e > 1.0 then
    invalid_arg "Calibration.set_link_error: probability out of [0, 1]";
  Hashtbl.replace c.link_errors (key u v) e

let links c =
  Hashtbl.fold (fun (u, v) e acc -> (u, v, e) :: acc) c.link_errors []
  |> List.sort compare

let copy c =
  {
    num_qubits = c.num_qubits;
    qubits = Array.copy c.qubits;
    link_errors = Hashtbl.copy c.link_errors;
  }

type summary = {
  mean : float;
  std : float;
  minimum : float;
  maximum : float;
}

let summarize values =
  match values with
  | [] -> invalid_arg "Calibration.summarize: empty sample"
  | first :: _ ->
    let count = float_of_int (List.length values) in
    let total = List.fold_left ( +. ) 0.0 values in
    let mean = total /. count in
    let sq_dev = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 values in
    {
      mean;
      std = sqrt (sq_dev /. count);
      minimum = List.fold_left Float.min first values;
      maximum = List.fold_left Float.max first values;
    }

let link_error_summary c = summarize (List.map (fun (_, _, e) -> e) (links c))

let scale_link_errors c ~mean_factor ~cov_factor =
  let stats = link_error_summary c in
  let new_mean = stats.mean *. mean_factor in
  let new_std = stats.std *. mean_factor *. cov_factor in
  let rescale e =
    let z = if stats.std > 0.0 then (e -. stats.mean) /. stats.std else 0.0 in
    let e' = new_mean +. (z *. new_std) in
    Float.min 0.75 (Float.max 1e-6 e')
  in
  let scaled = copy c in
  List.iter (fun (u, v, e) -> set_link_error scaled u v (rescale e)) (links c);
  scaled

(* --- serialization -------------------------------------------------- *)

let to_string c =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer (Printf.sprintf "qubits %d\n" c.num_qubits);
  Array.iteri
    (fun i q ->
      Buffer.add_string buffer
        (Printf.sprintf "q %d %.9g %.9g %.9g %.9g\n" i q.t1_us q.t2_us
           q.error_1q q.error_readout))
    c.qubits;
  List.iter
    (fun (u, v, e) ->
      Buffer.add_string buffer (Printf.sprintf "link %d %d %.9g\n" u v e))
    (links c);
  Buffer.contents buffer

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty calibration"
  | header :: rest -> begin
    match String.split_on_char ' ' header with
    | [ "qubits"; n_text ] -> begin
      match int_of_string_opt n_text with
      | None -> Error (Printf.sprintf "bad qubit count %S" n_text)
      | Some n ->
        if n < 0 then Error "negative qubit count"
        else begin
          let c = create n in
          let parse_line line =
            match String.split_on_char ' ' line with
            | [ "q"; i; t1; t2; e1; er ] -> begin
              match
                ( int_of_string_opt i,
                  float_of_string_opt t1,
                  float_of_string_opt t2,
                  float_of_string_opt e1,
                  float_of_string_opt er )
              with
              | Some i, Some t1_us, Some t2_us, Some error_1q, Some error_readout ->
                set_qubit c i { t1_us; t2_us; error_1q; error_readout };
                Ok ()
              | _ -> Error (Printf.sprintf "bad qubit record %S" line)
            end
            | [ "link"; u; v; e ] -> begin
              match
                (int_of_string_opt u, int_of_string_opt v, float_of_string_opt e)
              with
              | Some u, Some v, Some e ->
                set_link_error c u v e;
                Ok ()
              | _ -> Error (Printf.sprintf "bad link record %S" line)
            end
            | _ -> Error (Printf.sprintf "unrecognized record %S" line)
          in
          let rec parse_all = function
            | [] -> Ok c
            | line :: rest -> begin
              match parse_line line with
              | Ok () -> parse_all rest
              | Error _ as e -> e
            end
          in
          try parse_all rest with Invalid_argument m -> Error m
        end
    end
    | _ -> Error "missing 'qubits N' header"
  end

let of_string_exn text =
  match of_string text with Ok c -> c | Error m -> failwith m

let pp ppf c =
  Format.fprintf ppf "@[<v>calibration (%d qubits, %d links)" c.num_qubits
    (Hashtbl.length c.link_errors);
  Array.iteri
    (fun i q ->
      Format.fprintf ppf "@,  q%-2d T1=%.1fus T2=%.1fus e1q=%.4f ero=%.4f" i
        q.t1_us q.t2_us q.error_1q q.error_readout)
    c.qubits;
  List.iter
    (fun (u, v, e) -> Format.fprintf ppf "@,  %d--%d e2q=%.4f" u v e)
    (links c);
  Format.fprintf ppf "@]"
