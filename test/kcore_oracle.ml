(* The list-based VQA region search the array rewrite in
   [Vqc_graph.Kcore] replaced, kept verbatim as the oracle of its test
   wall: the rewrite must return exactly what this returns. *)

module Graph = Vqc_graph.Graph

let aggregate_strength g nodes =
  List.fold_left (fun acc v -> acc +. Graph.node_strength g v) 0.0 nodes

let internal_strength g nodes =
  let inside = Array.make (Graph.node_count g) false in
  List.iter (fun v -> inside.(v) <- true) nodes;
  Graph.fold_edges
    (fun u v w acc -> if inside.(u) && inside.(v) then acc +. w else acc)
    g 0.0

let grow_from g size seed =
  let n = Graph.node_count g in
  let inside = Array.make n false in
  inside.(seed) <- true;
  let chosen = ref [ seed ] in
  let gain v =
    List.fold_left
      (fun acc (u, w) -> if inside.(u) then acc +. w else acc)
      0.0 (Graph.neighbors g v)
  in
  let exception No_candidate in
  try
    for _ = 2 to size do
      let best = ref None in
      let consider v =
        if not inside.(v) then begin
          let key = (gain v, Graph.node_strength g v) in
          match !best with
          | Some (best_key, _) when best_key >= key -> ()
          | _ -> best := Some (key, v)
        end
      in
      List.iter (fun u -> List.iter consider (Graph.neighbor_ids g u)) !chosen;
      match !best with
      | None -> raise No_candidate
      | Some (_, v) ->
        inside.(v) <- true;
        chosen := v :: !chosen
    done;
    Some (List.sort compare !chosen)
  with No_candidate -> None

let strongest_subgraph g ~size =
  let n = Graph.node_count g in
  if size < 1 || size > n then
    invalid_arg
      (Printf.sprintf "Kcore.strongest_subgraph: size %d not in [1, %d]" size n);
  let best = ref None in
  for seed = 0 to n - 1 do
    match grow_from g size seed with
    | None -> ()
    | Some nodes ->
      let key = (internal_strength g nodes, aggregate_strength g nodes) in
      (match !best with
      | Some (best_key, _) when best_key >= key -> ()
      | _ -> best := Some (key, nodes))
  done;
  match !best with
  | Some (_, nodes) -> nodes
  | None ->
    invalid_arg "Kcore.strongest_subgraph: no connected subset of that size"
