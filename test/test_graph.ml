(* Unit and property tests for the graph substrate: priority queue,
   weighted graphs, shortest paths, k-core, generic A*. *)

module Graph = Vqc_graph.Graph
module Paths = Vqc_graph.Paths
module Pqueue = Vqc_graph.Pqueue
module Kcore = Vqc_graph.Kcore
module Astar = Vqc_graph.Astar

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---- Pqueue -------------------------------------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q p (int_of_float p)) [ 5.; 1.; 3.; 2.; 4. ];
  let drained = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, x) ->
      drained := x :: !drained;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ]
    (List.rev !drained)

let test_pqueue_peek_and_clear () =
  let q = Pqueue.create () in
  check "fresh empty" true (Pqueue.is_empty q);
  Pqueue.push q 2.0 "b";
  Pqueue.push q 1.0 "a";
  (match Pqueue.peek q with
  | Some (p, x) ->
    check_float "peek priority" 1.0 p;
    Alcotest.(check string) "peek payload" "a" x
  | None -> Alcotest.fail "peek on non-empty queue");
  check_int "length" 2 (Pqueue.length q);
  Pqueue.clear q;
  check "cleared" true (Pqueue.is_empty q);
  check "pop empty" true (Pqueue.pop q = None)

let test_pqueue_duplicates () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 0;
  Pqueue.push q 1.0 0;
  Pqueue.push q 0.5 1;
  check_int "three entries" 3 (Pqueue.length q);
  (match Pqueue.pop q with
  | Some (_, x) -> check_int "lowest first" 1 x
  | None -> Alcotest.fail "pop")

let prop_pqueue_sorts =
  QCheck2.Test.make ~name:"pqueue drains in priority order" ~count:200
    QCheck2.Gen.(list (float_bound_exclusive 1000.0))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) priorities;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (_, x) -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare priorities)

(* The int-keyed heap stores each priority as its IEEE-754 bit pattern
   shifted onto the native-int range.  A sign mistake in that encoding
   is invisible on priorities below 2.0 (biased-exponent bit 62 clear)
   and catastrophic above — so this seeded regression straddles the
   boundary explicitly, where the qcheck properties might not. *)
let test_pqueue_priorities_across_two () =
  let q = Pqueue.create () in
  let priorities =
    [ 1.5; 2.0; 1e9; 0.25; 3.0; 1.9999999999999998; 2.0000000000000004; 0.0 ]
  in
  List.iteri (fun i p -> Pqueue.push q p i) priorities;
  let rec drain acc =
    match Pqueue.pop q with
    | Some (p, _) -> drain (p :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (float 0.0)))
    "sorted across the 2.0 boundary"
    (List.sort compare priorities)
    (drain [])

let test_pqueue_round_trips_priorities () =
  (* pop must return the pushed priority bit for bit, extremes included *)
  let samples =
    [
      0.0; ldexp 1.0 (-1074) (* smallest subnormal *); ldexp 1.0 (-1022);
      1.0; 2.0; Float.pi; 1e300; max_float; infinity;
    ]
  in
  let q = Pqueue.create () in
  List.iteri (fun i p -> Pqueue.push q p i) samples;
  let rec drain acc =
    match Pqueue.pop q with
    | Some (p, _) -> drain (p :: acc)
    | None -> List.rev acc
  in
  let drained = drain [] in
  List.iter2
    (fun expected got ->
      check
        (Printf.sprintf "bits of %h survive" expected)
        true
        (Int64.bits_of_float expected = Int64.bits_of_float got))
    (List.sort compare samples)
    drained;
  (* -0.0 encodes like +0.0 (float equality), it is not rejected *)
  Pqueue.push q (-0.0) 0;
  match Pqueue.pop q with
  | Some (p, _) -> check "negative zero accepted as zero" true (p = 0.0)
  | None -> Alcotest.fail "pop after push"

let test_pqueue_rejects_negative_and_nan () =
  let q = Pqueue.create () in
  let rejected p =
    try
      Pqueue.push q p 0;
      false
    with Invalid_argument _ -> true
  in
  check "negative priority" true (rejected (-1.0));
  check "negative infinity" true (rejected neg_infinity);
  check "nan" true (rejected Float.nan);
  check "queue untouched by rejections" true (Pqueue.is_empty q)

(* The float-compared binary heap the int-keyed one replaced, kept as a
   model: same array layout, same strict-< sift logic.  Because the bit
   encoding is strictly monotone, both heaps must make identical sift
   decisions — including on ties — so interleaved push/pop sequences
   must produce identical (priority, payload) streams. *)
module Float_heap = struct
  type 'a t = {
    mutable prio : float array;
    mutable data : 'a array;
    mutable size : int;
  }

  let create () = { prio = [||]; data = [||]; size = 0 }

  let grow q x =
    let capacity = Array.length q.prio in
    if q.size = capacity then begin
      let new_capacity = max 16 (2 * capacity) in
      let prio = Array.make new_capacity 0.0 in
      let data = Array.make new_capacity x in
      Array.blit q.prio 0 prio 0 q.size;
      Array.blit q.data 0 data 0 q.size;
      q.prio <- prio;
      q.data <- data
    end

  let swap q i j =
    let pi = q.prio.(i) and di = q.data.(i) in
    q.prio.(i) <- q.prio.(j);
    q.data.(i) <- q.data.(j);
    q.prio.(j) <- pi;
    q.data.(j) <- di

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.prio.(i) < q.prio.(parent) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < q.size && q.prio.(left) < q.prio.(!smallest) then
      smallest := left;
    if right < q.size && q.prio.(right) < q.prio.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q prio x =
    grow q x;
    q.prio.(q.size) <- prio;
    q.data.(q.size) <- x;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)

  let pop q =
    if q.size = 0 then None
    else begin
      let prio = q.prio.(0) and x = q.data.(0) in
      q.size <- q.size - 1;
      if q.size > 0 then begin
        q.prio.(0) <- q.prio.(q.size);
        q.data.(0) <- q.data.(q.size);
        sift_down q 0
      end;
      Some (prio, x)
    end
end

let prop_pqueue_replays_float_heap =
  (* duplicate-heavy priorities (multiples of 0.25 in [0, 3.75], so ties
     are common and the 2.0 bit boundary is crossed) with interleaved
     pushes and pops: payload streams must match exactly, proving the
     encoding changes nothing — not even tie-breaking order *)
  QCheck2.Test.make ~name:"int-keyed heap replays the float heap exactly"
    ~count:300
    QCheck2.Gen.(list (pair bool (int_bound 15)))
    (fun operations ->
      let q = Pqueue.create () in
      let model = Float_heap.create () in
      let counter = ref 0 in
      let step (is_pop, raw) =
        if is_pop then Pqueue.pop q = Float_heap.pop model
        else begin
          let priority = float_of_int raw /. 4.0 in
          incr counter;
          Pqueue.push q priority !counter;
          Float_heap.push model priority !counter;
          true
        end
      in
      let rec drain () =
        match (Pqueue.pop q, Float_heap.pop model) with
        | None, None -> true
        | Some a, Some b -> a = b && drain ()
        | _ -> false
      in
      List.for_all step operations && drain ())

let test_pqueue_lazy_deletion_pattern () =
  (* the A* usage pattern: "decrease-key" is a re-push of the same
     payload at a better priority, the stale entry popped later and
     skipped by the caller.  All copies must surface, best first. *)
  let q = Pqueue.create () in
  Pqueue.push q 10.0 "n";
  Pqueue.push q 6.0 "n";
  Pqueue.push q 2.5 "n";
  Pqueue.push q 4.0 "other";
  check_int "all copies retained" 4 (Pqueue.length q);
  let rec drain acc =
    match Pqueue.pop q with
    | Some (p, x) -> drain ((p, x) :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (pair (float 0.0) string)))
    "best copy first, stale copies later"
    [ (2.5, "n"); (4.0, "other"); (6.0, "n"); (10.0, "n") ]
    (drain [])

(* ---- Graph --------------------------------------------------------- *)

let diamond () =
  (* 0 - 1, 0 - 2, 1 - 3, 2 - 3 with distinct weights *)
  Graph.of_edges 4 [ (0, 1, 1.0); (0, 2, 2.0); (1, 3, 3.0); (2, 3, 0.5) ]

let test_graph_basics () =
  let g = diamond () in
  check_int "nodes" 4 (Graph.node_count g);
  check_int "edges" 4 (Graph.edge_count g);
  check "has 0-1" true (Graph.has_edge g 0 1);
  check "has 1-0 (undirected)" true (Graph.has_edge g 1 0);
  check "no 0-3" false (Graph.has_edge g 0 3);
  check_float "weight" 2.0 (Graph.edge_weight_exn g 2 0);
  check_int "degree of 3" 2 (Graph.degree g 3);
  check_float "strength of 0" 3.0 (Graph.node_strength g 0);
  Alcotest.(check (list (pair int (float 1e-9))))
    "neighbors sorted" [ (1, 1.0); (2, 2.0) ] (Graph.neighbors g 0)

let test_graph_replace_edge () =
  let g = diamond () in
  Graph.add_edge g 0 1 9.0;
  check_float "replaced weight" 9.0 (Graph.edge_weight_exn g 1 0);
  check_int "edge count unchanged" 4 (Graph.edge_count g)

let test_graph_remove_edge () =
  let g = diamond () in
  Graph.remove_edge g 0 1;
  check "removed" false (Graph.has_edge g 0 1);
  Graph.remove_edge g 0 1;
  check_int "three left" 3 (Graph.edge_count g)

let test_graph_rejects_self_loop () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1 1.0)

let test_graph_rejects_out_of_range () =
  let g = Graph.create 3 in
  check "raises" true
    (try
       Graph.add_edge g 0 7 1.0;
       false
     with Invalid_argument _ -> true)

let test_graph_edges_each_once () =
  let g = diamond () in
  Alcotest.(check int) "4 undirected edges" 4 (List.length (Graph.edges g));
  List.iter (fun (u, v, _) -> check "u < v" true (u < v)) (Graph.edges g)

let test_graph_map_weights () =
  let g = diamond () in
  let doubled = Graph.map_weights (fun _ _ w -> 2.0 *. w) g in
  check_float "doubled" 2.0 (Graph.edge_weight_exn doubled 0 1);
  check_float "original intact" 1.0 (Graph.edge_weight_exn g 0 1)

let test_graph_connectivity () =
  let g = diamond () in
  check "connected" true (Graph.is_connected g);
  let disconnected = Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  check "disconnected" false (Graph.is_connected disconnected);
  check "subset 0,1 connected" true (Graph.is_connected_subset disconnected [ 0; 1 ]);
  check "subset 1,2 disconnected" false
    (Graph.is_connected_subset disconnected [ 1; 2 ]);
  check "empty subset" false (Graph.is_connected_subset g []);
  check "singleton" true (Graph.is_connected_subset g [ 2 ])

let test_induced_subgraph () =
  let g = diamond () in
  let sub = Graph.induced_subgraph g [ 0; 1; 3 ] in
  check "keeps 0-1" true (Graph.has_edge sub 0 1);
  check "keeps 1-3" true (Graph.has_edge sub 1 3);
  check "drops 2-3" false (Graph.has_edge sub 2 3)

(* ---- Paths --------------------------------------------------------- *)

let test_dijkstra_diamond () =
  let g = diamond () in
  let dist, prev = Paths.dijkstra g 0 in
  check_float "dist 0" 0.0 dist.(0);
  check_float "dist 3 via 2" 2.5 dist.(3);
  check_int "prev of 3" 2 prev.(3)

let test_shortest_path () =
  let g = diamond () in
  Alcotest.(check (option (list int)))
    "path 0->3" (Some [ 0; 2; 3 ])
    (Paths.shortest_path g 0 3);
  Alcotest.(check (option (list int)))
    "path to self" (Some [ 1 ])
    (Paths.shortest_path g 1 1);
  let disconnected = Graph.of_edges 3 [ (0, 1, 1.0) ] in
  Alcotest.(check (option (list int)))
    "unreachable" None
    (Paths.shortest_path disconnected 0 2)

let test_path_cost () =
  let g = diamond () in
  check_float "cost of 0-2-3" 2.5 (Paths.path_cost g [ 0; 2; 3 ]);
  check_float "empty path" 0.0 (Paths.path_cost g []);
  check_float "single node" 0.0 (Paths.path_cost g [ 1 ])

let test_bfs_hops () =
  let g = diamond () in
  let hops = Paths.bfs_hops g 0 in
  check_int "hop to self" 0 hops.(0);
  check_int "hop to 3" 2 hops.(3);
  let disconnected = Graph.of_edges 3 [ (0, 1, 1.0) ] in
  check_int "unreachable hop" max_int (Paths.bfs_hops disconnected 0).(2)

let test_negative_weight_rejected () =
  let g = Graph.of_edges 2 [ (0, 1, -1.0) ] in
  check "raises" true
    (try
       let _ = Paths.dijkstra g 0 in
       false
     with Invalid_argument _ -> true)

let random_connected_graph =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* extra = list_size (int_bound 12) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* weights = list_repeat (n - 1 + List.length extra) (float_range 0.1 10.0) in
    (* spanning chain guarantees connectivity *)
    let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
    let all_pairs = chain @ List.filter (fun (u, v) -> u <> v) extra in
    let edges =
      List.map2 (fun (u, v) w -> (min u v, max u v, w))
        (List.filteri (fun i _ -> i < List.length weights) all_pairs)
        (List.filteri (fun i _ -> i < List.length all_pairs) weights)
    in
    return (Graph.of_edges n edges))

let prop_dijkstra_triangle =
  QCheck2.Test.make ~name:"dijkstra satisfies triangle inequality" ~count:100
    random_connected_graph (fun g ->
      let n = Graph.node_count g in
      let d = Paths.all_pairs g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if d.(i).(j) > d.(i).(k) +. d.(k).(j) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let prop_shortest_path_cost_matches =
  QCheck2.Test.make ~name:"shortest path cost equals dijkstra distance"
    ~count:100 random_connected_graph (fun g ->
      let n = Graph.node_count g in
      let dist, _ = Paths.dijkstra g 0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        match Paths.shortest_path g 0 v with
        | Some path ->
          if Float.abs (Paths.path_cost g path -. dist.(v)) > 1e-9 then
            ok := false
        | None -> ok := false
      done;
      !ok)

let prop_hops_le_weighted_path_length =
  QCheck2.Test.make ~name:"hop distance is a lower bound on path length"
    ~count:100 random_connected_graph (fun g ->
      let n = Graph.node_count g in
      let hops = Paths.all_pairs_hops g in
      let ok = ref true in
      for v = 0 to n - 1 do
        match Paths.shortest_path g 0 v with
        | Some path -> if List.length path - 1 < hops.(0).(v) then ok := false
        | None -> ok := false
      done;
      !ok)

(* ---- Kcore --------------------------------------------------------- *)

let test_core_numbers_clique_plus_tail () =
  (* triangle 0-1-2 with a tail 2-3 *)
  let g =
    Graph.of_edges 4 [ (0, 1, 1.); (0, 2, 1.); (1, 2, 1.); (2, 3, 1.) ]
  in
  let core = Kcore.core_numbers g in
  check_int "triangle node" 2 core.(0);
  check_int "triangle node" 2 core.(1);
  check_int "junction" 2 core.(2);
  check_int "tail" 1 core.(3);
  Alcotest.(check (list int)) "2-core" [ 0; 1; 2 ] (Kcore.k_core g 2)

let test_strength_helpers () =
  let g = diamond () in
  check_float "aggregate" (3.0 +. 4.0) (Kcore.aggregate_strength g [ 0; 1 ]);
  check_float "internal" 1.0 (Kcore.internal_strength g [ 0; 1 ]);
  check_float "internal of all" 6.5 (Kcore.internal_strength g [ 0; 1; 2; 3 ])

let test_strongest_subgraph_picks_strong_side () =
  (* two triangles joined by a bridge; right triangle much stronger *)
  let g =
    Graph.of_edges 6
      [
        (0, 1, 0.1); (0, 2, 0.1); (1, 2, 0.1);
        (2, 3, 0.1);
        (3, 4, 5.0); (3, 5, 5.0); (4, 5, 5.0);
      ]
  in
  Alcotest.(check (list int))
    "strong triangle" [ 3; 4; 5 ]
    (Kcore.strongest_subgraph g ~size:3)

let test_strongest_subgraph_connected =
  QCheck2.Test.make ~name:"strongest subgraph is connected and sized"
    ~count:100
    QCheck2.Gen.(pair random_connected_graph (int_range 1 6))
    (fun (g, k) ->
      let k = min k (Graph.node_count g) in
      let nodes = Kcore.strongest_subgraph g ~size:k in
      List.length nodes = k && Graph.is_connected_subset g nodes)

let test_grow_subgraph () =
  let g = diamond () in
  (match Kcore.grow_subgraph g ~size:2 ~seed:0 with
  | Some nodes ->
    check_int "size" 2 (List.length nodes);
    check "contains seed" true (List.mem 0 nodes)
  | None -> Alcotest.fail "growth failed");
  let disconnected = Graph.of_edges 4 [ (0, 1, 1.0) ] in
  check "too small component" true
    (Kcore.grow_subgraph disconnected ~size:3 ~seed:0 = None)

(* The array region search against the list-based search it replaced
   ([Kcore_oracle]).  Weights come from a small set whose sums round
   differently in different orders (0.1 + 0.2 + 0.3 <> 0.3 + 0.2 + 0.1),
   so both the summation order and the tie-breaking are exercised; one
   node in eight is left off the spanning tree, so disconnected graphs
   (and seeds whose component is too small) occur too. *)
let tied_weights = [| 0.1; 0.2; 0.3; 0.6; 0.7; 1.0 |]

let random_tied_graph =
  QCheck2.Gen.(
    let* n = int_range 1 14 in
    let* tree =
      flatten_l
        (List.init (n - 1) (fun i ->
             let* parent = int_bound i in
             let* keep = int_bound 7 in
             let* w = oneofa tied_weights in
             return (if keep = 0 then None else Some (parent, i + 1, w))))
    in
    let* extra =
      list_size (int_bound (2 * n))
        (triple (int_bound (n - 1)) (int_bound (n - 1)) (oneofa tied_weights))
    in
    let edges =
      List.filter_map Fun.id tree
      @ List.filter_map
          (fun (u, v, w) -> if u = v then None else Some (min u v, max u v, w))
          extra
    in
    return (Graph.of_edges n edges))

let outcome f =
  match f () with r -> Ok r | exception Invalid_argument m -> Error m

let prop_region_search_matches_oracle =
  QCheck2.Test.make ~name:"region search matches the list oracle" ~count:400
    random_tied_graph (fun g ->
      let n = Graph.node_count g in
      List.for_all
        (fun size ->
          outcome (fun () -> Kcore.strongest_subgraph g ~size)
          = outcome (fun () -> Kcore_oracle.strongest_subgraph g ~size)
          && List.for_all
               (fun seed ->
                 Kcore.grow_subgraph g ~size ~seed
                 = Kcore_oracle.grow_from g size seed)
               (List.init n Fun.id))
        (List.init n (fun i -> i + 1)))

(* The same wall on the graphs VQA really searches: every day of the
   seed-2 Q20 history, every region size, with and without the readout
   discount (built as [Allocation.allocate] builds it). *)
let test_region_search_matches_oracle_on_q20 () =
  let module Device = Vqc_device.Device in
  let module Calibration = Vqc_device.Calibration in
  let coupling = Vqc_device.Topologies.ibm_q20_tokyo in
  let history = Vqc_device.History.generate ~seed:2 ~coupling 20 in
  let cases = ref 0 in
  List.iter
    (fun calibration ->
      let device = Device.make ~name:"Q20" ~coupling calibration in
      let success = Device.success_graph device in
      let survival q =
        1.0 -. (Calibration.qubit calibration q).Calibration.error_readout
      in
      let readout =
        Graph.map_weights
          (fun u v w -> w *. sqrt (survival u *. survival v))
          success
      in
      List.iter
        (fun g ->
          for size = 1 to 20 do
            incr cases;
            Alcotest.(check (list int))
              (Printf.sprintf "case %d, size %d" !cases size)
              (Kcore_oracle.strongest_subgraph g ~size)
              (Kcore.strongest_subgraph g ~size)
          done)
        [ success; readout ])
    (Vqc_device.History.all history);
  check_int "52 days x 20 sizes x 2 graphs" 2080 !cases

(* ---- Astar --------------------------------------------------------- *)

(* Sliding puzzle on a line: move a token from 0 to [goal] paying 1 per
   step; heuristic is exact distance. *)
let line_problem goal =
  {
    Astar.start = 0;
    is_goal = (fun s -> s = goal);
    successors = (fun s -> [ (s + 1, 1.0); (s - 1, 1.0) ]);
    heuristic = (fun s -> float_of_int (abs (goal - s)));
    key = string_of_int;
  }

let test_astar_line () =
  match Astar.search (line_problem 7) with
  | Some outcome ->
    check_float "cost" 7.0 outcome.Astar.cost;
    check_int "goal" 7 outcome.Astar.goal
  | None -> Alcotest.fail "no solution"

let test_astar_path_reconstruction () =
  match Astar.search_path (line_problem 3) with
  | Some (states, cost, _) ->
    Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] states;
    check_float "cost" 3.0 cost
  | None -> Alcotest.fail "no solution"

let test_astar_expansion_cap () =
  check "cap exhausts" true (Astar.search ~max_expansions:3 (line_problem 50) = None)

let test_astar_prefers_cheap_route () =
  (* two routes to goal: direct expensive edge vs two cheap edges *)
  let problem =
    {
      Astar.start = "s";
      is_goal = (fun s -> s = "g");
      successors =
        (fun s ->
          match s with
          | "s" -> [ ("g", 10.0); ("m", 1.0) ]
          | "m" -> [ ("g", 1.0) ]
          | _ -> []);
      heuristic = (fun _ -> 0.0);
      key = Fun.id;
    }
  in
  match Astar.search_path problem with
  | Some (states, cost, _) ->
    Alcotest.(check (list string)) "via m" [ "s"; "m"; "g" ] states;
    check_float "cost 2" 2.0 cost
  | None -> Alcotest.fail "no solution"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vqc_graph"
    [
      ( "pqueue",
        [
          Alcotest.test_case "drains in order" `Quick test_pqueue_order;
          Alcotest.test_case "peek and clear" `Quick test_pqueue_peek_and_clear;
          Alcotest.test_case "duplicates" `Quick test_pqueue_duplicates;
          Alcotest.test_case "priorities across 2.0" `Quick
            test_pqueue_priorities_across_two;
          Alcotest.test_case "round trips" `Quick
            test_pqueue_round_trips_priorities;
          Alcotest.test_case "rejects negative and nan" `Quick
            test_pqueue_rejects_negative_and_nan;
          Alcotest.test_case "lazy deletion" `Quick
            test_pqueue_lazy_deletion_pattern;
        ]
        @ qcheck [ prop_pqueue_sorts; prop_pqueue_replays_float_heap ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "replace edge" `Quick test_graph_replace_edge;
          Alcotest.test_case "remove edge" `Quick test_graph_remove_edge;
          Alcotest.test_case "rejects self loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "rejects range" `Quick test_graph_rejects_out_of_range;
          Alcotest.test_case "edges once" `Quick test_graph_edges_each_once;
          Alcotest.test_case "map weights" `Quick test_graph_map_weights;
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "path cost" `Quick test_path_cost;
          Alcotest.test_case "bfs hops" `Quick test_bfs_hops;
          Alcotest.test_case "negative weights" `Quick test_negative_weight_rejected;
        ]
        @ qcheck
            [
              prop_dijkstra_triangle;
              prop_shortest_path_cost_matches;
              prop_hops_le_weighted_path_length;
            ] );
      ( "kcore",
        [
          Alcotest.test_case "core numbers" `Quick test_core_numbers_clique_plus_tail;
          Alcotest.test_case "strength helpers" `Quick test_strength_helpers;
          Alcotest.test_case "strongest side" `Quick
            test_strongest_subgraph_picks_strong_side;
          Alcotest.test_case "grow subgraph" `Quick test_grow_subgraph;
          Alcotest.test_case "region search matches the oracle on Q20" `Quick
            test_region_search_matches_oracle_on_q20;
        ]
        @ qcheck
            [
              test_strongest_subgraph_connected;
              prop_region_search_matches_oracle;
            ] );
      ( "astar",
        [
          Alcotest.test_case "line search" `Quick test_astar_line;
          Alcotest.test_case "path reconstruction" `Quick
            test_astar_path_reconstruction;
          Alcotest.test_case "expansion cap" `Quick test_astar_expansion_cap;
          Alcotest.test_case "prefers cheap route" `Quick
            test_astar_prefers_cheap_route;
        ] );
    ]
