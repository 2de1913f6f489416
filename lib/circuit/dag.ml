type t = {
  gates : Gate.t array;
  successors : int list array;
  predecessors : int list array;
}

let build circuit =
  let gates = Array.of_list (Circuit.gates circuit) in
  let n = Circuit.num_qubits circuit in
  let count = Array.length gates in
  let successors = Array.make count [] in
  let predecessors = Array.make count [] in
  let last_on_wire = Array.make (max n 1) (-1) in
  Array.iteri
    (fun index gate ->
      let qs =
        match gate with
        | Gate.Barrier [] -> List.init n Fun.id
        | _ -> Gate.qubits gate
      in
      List.iter
        (fun q ->
          let prev = last_on_wire.(q) in
          if prev >= 0 then begin
            successors.(prev) <- index :: successors.(prev);
            predecessors.(index) <- prev :: predecessors.(index)
          end;
          last_on_wire.(q) <- index)
        qs)
    gates;
  let dedup_sorted l = List.sort_uniq compare l in
  Array.iteri (fun i s -> successors.(i) <- dedup_sorted s) successors;
  Array.iteri (fun i p -> predecessors.(i) <- dedup_sorted p) predecessors;
  { gates; successors; predecessors }

let gate_count d = Array.length d.gates

let check d i =
  if i < 0 || i >= gate_count d then
    invalid_arg (Printf.sprintf "Dag: gate index %d out of range" i)

let gate d i =
  check d i;
  d.gates.(i)

let successors d i =
  check d i;
  d.successors.(i)

let predecessors d i =
  check d i;
  d.predecessors.(i)

let predecessor_count d i = List.length (predecessors d i)

let front d =
  Array.to_list (Array.mapi (fun i p -> (i, p)) d.predecessors)
  |> List.filter_map (fun (i, p) -> if p = [] then Some i else None)

let asap_levels d =
  let levels = Array.make (gate_count d) 0 in
  (* original order is topological *)
  Array.iteri
    (fun i _ ->
      let level =
        List.fold_left
          (fun acc p -> max acc (levels.(p) + 1))
          0 d.predecessors.(i)
      in
      levels.(i) <- level)
    d.gates;
  levels

let critical_path_length d =
  if gate_count d = 0 then 0
  else 1 + Array.fold_left max 0 (asap_levels d)
