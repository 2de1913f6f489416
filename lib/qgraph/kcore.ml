(* Batagelj-Zaversnik O(m) core decomposition: process nodes in increasing
   degree order, repeatedly removing the minimum-degree node; its degree at
   removal time is its core number. *)
let core_numbers g =
  let n = Graph.node_count g in
  let degree = Array.init n (Graph.degree g) in
  let max_degree = Array.fold_left max 0 degree in
  (* bucket sort nodes by current degree *)
  let bin = Array.make (max_degree + 2) 0 in
  Array.iter (fun d -> bin.(d) <- bin.(d) + 1) degree;
  let start = ref 0 in
  for d = 0 to max_degree do
    let count = bin.(d) in
    bin.(d) <- !start;
    start := !start + count
  done;
  let pos = Array.make n 0 in
  let vert = Array.make n 0 in
  Array.iteri
    (fun v d ->
      pos.(v) <- bin.(d);
      vert.(pos.(v)) <- v;
      bin.(d) <- bin.(d) + 1)
    degree;
  for d = max_degree downto 1 do
    bin.(d) <- bin.(d - 1)
  done;
  if max_degree >= 0 then bin.(0) <- 0;
  let core = Array.copy degree in
  for i = 0 to n - 1 do
    let v = vert.(i) in
    let lower_neighbor u =
      if core.(u) > core.(v) then begin
        (* swap u with the first node of its degree bucket, then shrink *)
        let du = core.(u) in
        let pu = pos.(u) in
        let pw = bin.(du) in
        let w = vert.(pw) in
        if u <> w then begin
          pos.(u) <- pw;
          vert.(pu) <- w;
          pos.(w) <- pu;
          vert.(pw) <- u
        end;
        bin.(du) <- bin.(du) + 1;
        core.(u) <- core.(u) - 1
      end
    in
    List.iter lower_neighbor (Graph.neighbor_ids g v)
  done;
  core

let k_core g k =
  let core = core_numbers g in
  let chosen = ref [] in
  for v = Graph.node_count g - 1 downto 0 do
    if core.(v) >= k then chosen := v :: !chosen
  done;
  !chosen

let aggregate_strength g nodes =
  List.fold_left (fun acc v -> acc +. Graph.node_strength g v) 0.0 nodes

let internal_strength g nodes =
  let inside = Array.make (Graph.node_count g) false in
  List.iter (fun v -> inside.(v) <- true) nodes;
  Graph.fold_edges
    (fun u v w acc -> if inside.(u) && inside.(v) then acc +. w else acc)
    g 0.0

(* The region search reads the graph through arrays built once per call:
   neighbour ids and weights in [Graph.neighbors] order, each node's
   [Graph.node_strength], and the edges in [Graph.fold_edges] order.
   Every float sum below adds the same values in the same order as
   [aggregate_strength], [internal_strength] and the gain of a list
   walk over [Graph.neighbors], so the sums are bit-identical. *)
type view = {
  ids : int array array;
  weights : float array array;
  strength : float array;
  edge_u : int array;
  edge_v : int array;
  edge_w : float array;
}

let view g =
  let n = Graph.node_count g in
  let neighbors = Array.init n (Graph.neighbors g) in
  let m = Graph.edge_count g in
  let edge_u = Array.make m 0 in
  let edge_v = Array.make m 0 in
  let edge_w = Array.make m 0.0 in
  let next = ref 0 in
  Graph.iter_edges
    (fun u v w ->
      edge_u.(!next) <- u;
      edge_v.(!next) <- v;
      edge_w.(!next) <- w;
      incr next)
    g;
  {
    ids = Array.map (fun l -> Array.of_list (List.map fst l)) neighbors;
    weights = Array.map (fun l -> Array.of_list (List.map snd l)) neighbors;
    strength = Array.init n (Graph.node_strength g);
    edge_u;
    edge_v;
    edge_w;
  }

(* Grow a connected set from [seed], always adding the frontier node that
   gains the most internal strength (ties broken by full-graph strength).
   Candidates are scanned newest chosen node first, each node's
   neighbours in increasing order; a candidate replaces the best so far
   only when its (gain, strength) is strictly greater — the first one
   seen wins a tie.  The comparison is written so that it agrees with the
   polymorphic [>=] on the pair, NaNs included.  Fills
   [chosen.(0 .. count-1)], marks them in [inside] (the caller clears
   both) and returns [count], which is [size] unless the seed's component
   is smaller. *)
let grow v ~inside ~chosen size seed =
  inside.(seed) <- true;
  chosen.(0) <- seed;
  let count = ref 1 in
  let stuck = ref false in
  while !count < size && not !stuck do
    let best = ref (-1) in
    let best_gain = ref 0.0 in
    let best_strength = ref 0.0 in
    for c = !count - 1 downto 0 do
      let around = v.ids.(chosen.(c)) in
      for j = 0 to Array.length around - 1 do
        let candidate = around.(j) in
        if not inside.(candidate) then begin
          let ids = v.ids.(candidate) and weights = v.weights.(candidate) in
          let gain = ref 0.0 in
          for i = 0 to Array.length ids - 1 do
            if inside.(ids.(i)) then gain := !gain +. weights.(i)
          done;
          let strength = v.strength.(candidate) in
          if
            !best < 0
            || not
                 (!best_gain > !gain
                 || (!best_gain = !gain && !best_strength >= strength))
          then begin
            best := candidate;
            best_gain := !gain;
            best_strength := strength
          end
        end
      done
    done;
    if !best < 0 then stuck := true
    else begin
      inside.(!best) <- true;
      chosen.(!count) <- !best;
      incr count
    end
  done;
  !count

let sorted_members inside =
  let nodes = ref [] in
  for u = Array.length inside - 1 downto 0 do
    if inside.(u) then nodes := u :: !nodes
  done;
  !nodes

let grow_subgraph g ~size ~seed =
  let n = Graph.node_count g in
  if size < 1 || size > n then
    invalid_arg
      (Printf.sprintf "Kcore.grow_subgraph: size %d not in [1, %d]" size n);
  if seed < 0 || seed >= n then
    invalid_arg (Printf.sprintf "Kcore.grow_subgraph: seed %d out of range" seed);
  let inside = Array.make n false in
  if grow (view g) ~inside ~chosen:(Array.make size 0) size seed = size then
    Some (sorted_members inside)
  else None

let strongest_subgraph g ~size =
  let n = Graph.node_count g in
  if size < 1 || size > n then
    invalid_arg
      (Printf.sprintf "Kcore.strongest_subgraph: size %d not in [1, %d]" size n);
  let v = view g in
  let inside = Array.make n false in
  let chosen = Array.make size 0 in
  let best_inside = Array.make n false in
  let found = ref false in
  let best_internal = ref 0.0 in
  let best_aggregate = ref 0.0 in
  for seed = 0 to n - 1 do
    let count = grow v ~inside ~chosen size seed in
    if count = size then begin
      let internal = ref 0.0 in
      for e = 0 to Array.length v.edge_u - 1 do
        if inside.(v.edge_u.(e)) && inside.(v.edge_v.(e)) then
          internal := !internal +. v.edge_w.(e)
      done;
      (* ANS over the region in increasing node order *)
      let aggregate = ref 0.0 in
      for u = 0 to n - 1 do
        if inside.(u) then aggregate := !aggregate +. v.strength.(u)
      done;
      if
        (not !found)
        || not
             (!best_internal > !internal
             || (!best_internal = !internal && !best_aggregate >= !aggregate))
      then begin
        found := true;
        best_internal := !internal;
        best_aggregate := !aggregate;
        Array.blit inside 0 best_inside 0 n
      end
    end;
    for i = 0 to count - 1 do
      inside.(chosen.(i)) <- false
    done
  done;
  if !found then sorted_members best_inside
  else invalid_arg "Kcore.strongest_subgraph: no connected subset of that size"
