open Vqc_circuit
module Device = Vqc_device.Device
module Graph = Vqc_graph.Graph
module Kcore = Vqc_graph.Kcore
module Rng = Vqc_rng.Rng

type policy =
  | Trivial
  | Random of int
  | Locality
  | Vqa of { activity_window : int option; readout_aware : bool }

let vqa = Vqa { activity_window = None; readout_aware = false }
let vqa_readout = Vqa { activity_window = None; readout_aware = true }

let policy_name = function
  | Trivial -> "trivial"
  | Random seed -> Printf.sprintf "random-%d" seed
  | Locality -> "locality"
  | Vqa { readout_aware = false; _ } -> "vqa"
  | Vqa { readout_aware = true; _ } -> "vqa-readout"

(* Interaction counts restricted to the first [window] layers (all layers
   when [None]); paper Section 6.2 step 2. *)
let windowed_interactions circuit window =
  let layers = Layers.partition circuit in
  let layers =
    match window with
    | None -> layers
    | Some w -> List.filteri (fun i _ -> i < w) layers
  in
  let table = Hashtbl.create 32 in
  List.iter
    (fun layer ->
      List.iter
        (fun (a, b) ->
          let k = (min a b, max a b) in
          let current = Option.value (Hashtbl.find_opt table k) ~default:0 in
          Hashtbl.replace table k (current + 1))
        (Layers.two_qubit_pairs layer))
    layers;
  table

let activity_of_interactions num_qubits table =
  let activity = Array.make num_qubits 0 in
  Hashtbl.iter
    (fun (a, b) count ->
      activity.(a) <- activity.(a) + count;
      activity.(b) <- activity.(b) + count)
    table;
  activity

(* Program qubits in decreasing activity (ties: lower index first). *)
let by_activity activity =
  let order = List.init (Array.length activity) Fun.id in
  List.stable_sort (fun a b -> compare activity.(b) activity.(a)) order

(* Greedy placement: walk program qubits in decreasing activity; place each
   on the free candidate that minimizes interaction-weighted distance to its
   already-placed partners (falling back to distance to the anchor), plus an
   optional per-(program, physical) penalty (e.g. readout cost). *)
let greedy_place ?(node_penalty = fun ~prog:_ ~phys:_ -> 0.0) ~candidates
    ~distance ~anchor interactions activity =
  let placement = Hashtbl.create 16 in
  let free = Hashtbl.create 16 in
  List.iter (fun phys -> Hashtbl.replace free phys ()) candidates;
  let partner_weight prog other =
    let k = (min prog other, max prog other) in
    Option.value (Hashtbl.find_opt interactions k) ~default:0
  in
  let place prog =
    let placed = Hashtbl.fold (fun p phys acc -> (p, phys) :: acc) placement [] in
    let score phys =
      let penalty = node_penalty ~prog ~phys in
      let interaction_term =
        List.fold_left
          (fun acc (other, other_phys) ->
            let weight = partner_weight prog other in
            if weight = 0 then acc
            else acc +. (float_of_int weight *. distance phys other_phys))
          0.0 placed
      in
      if interaction_term > 0.0 then
        (0, interaction_term +. penalty, distance phys anchor)
      else (1, distance phys anchor +. penalty, 0.0)
    in
    let best = ref None in
    Hashtbl.iter
      (fun phys () ->
        let key = (score phys, phys) in
        match !best with
        | Some best_key when best_key <= key -> ()
        | _ -> best := Some key)
      free;
    match !best with
    | None -> invalid_arg "Allocation: not enough physical qubits"
    | Some (_, phys) ->
      Hashtbl.remove free phys;
      Hashtbl.replace placement prog phys
  in
  List.iter place (by_activity activity);
  placement

let layout_of_placement ~programs ~physicals placement =
  let assignment = Array.make programs (-1) in
  Hashtbl.iter (fun prog phys -> assignment.(prog) <- phys) placement;
  Array.iteri
    (fun prog phys ->
      if phys = -1 then
        invalid_arg (Printf.sprintf "Allocation: program qubit %d unplaced" prog))
    assignment;
  Layout.of_assignment ~physicals assignment

(* The hop-central physical qubit: minimum total hop distance to others. *)
let device_center device =
  let hop = Device.hop_distance device in
  let n = Device.num_qubits device in
  let total u = Array.fold_left (fun acc h -> acc + h) 0 hop.(u) in
  let rec best u champion champion_total =
    if u >= n then champion
    else begin
      let t = total u in
      if t < champion_total then best (u + 1) u t else best (u + 1) champion champion_total
    end
  in
  best 1 0 (total 0)

let allocate device circuit policy =
  let programs = Circuit.num_qubits circuit in
  let physicals = Device.num_qubits device in
  if programs > physicals then
    invalid_arg
      (Printf.sprintf "Allocation: %d program qubits on a %d-qubit device"
         programs physicals);
  match policy with
  | _ when programs = 0 ->
    (* an empty program has one layout under every policy, and a region
       search has no empty region to look for *)
    Layout.identity ~programs ~physicals
  | Trivial -> Layout.identity ~programs ~physicals
  | Random seed ->
    let rng = Rng.make seed in
    let nodes = Array.init physicals Fun.id in
    Rng.shuffle rng nodes;
    Layout.of_assignment ~physicals (Array.sub nodes 0 programs)
  | Locality ->
    let interactions = windowed_interactions circuit None in
    let activity = activity_of_interactions programs interactions in
    let hop = Device.hop_distance device in
    let distance u v = float_of_int hop.(u).(v) in
    let anchor = device_center device in
    let candidates = List.init physicals Fun.id in
    greedy_place ~candidates ~distance ~anchor interactions activity
    |> layout_of_placement ~programs ~physicals
  | Vqa { activity_window; readout_aware } ->
    let interactions = windowed_interactions circuit activity_window in
    let activity = activity_of_interactions programs interactions in
    let success = Device.success_graph device in
    (* Region selection.  The readout extension discounts every edge by
       the endpoints' readout survival (split as a square root so each
       node is counted once per incident edge side): regions built from
       strong links around poor-readout qubits stop looking strong. *)
    let region_graph =
      if not readout_aware then success
      else begin
        let calibration = Device.calibration device in
        let survival q =
          1.0
          -. (Vqc_device.Calibration.qubit calibration q)
               .Vqc_device.Calibration.error_readout
        in
        Graph.map_weights
          (fun u v w -> w *. sqrt (survival u *. survival v))
          success
      end
    in
    let region = Kcore.strongest_subgraph region_graph ~size:programs in
    let reliability = Device.reliability_distance device in
    let distance u v = reliability.(u).(v) in
    (* Readout extension: a measured program qubit pays the physical
       qubit's -log readout survival, the same log-failure units as the
       route terms. *)
    let node_penalty =
      if not readout_aware then fun ~prog:_ ~phys:_ -> 0.0
      else begin
        let measures = Array.make programs 0 in
        List.iter
          (fun gate ->
            match gate with
            | Gate.Measure { qubit; _ } -> measures.(qubit) <- measures.(qubit) + 1
            | Gate.One_qubit _ | Gate.Cnot _ | Gate.Swap _ | Gate.Barrier _ ->
              ())
          (Circuit.gates circuit);
        let calibration = Device.calibration device in
        fun ~prog ~phys ->
          if measures.(prog) = 0 then 0.0
          else begin
            let e =
              (Vqc_device.Calibration.qubit calibration phys)
                .Vqc_device.Calibration.error_readout
            in
            float_of_int measures.(prog) *. -.log (Float.max 1e-12 (1.0 -. e))
          end
      end
    in
    (* Anchor at the region's reliability centroid: the node with the
       cheapest total most-reliable routes to the rest of the region.
       (The raw strongest node can sit in a corner, which wrecks the
       locality of hub-patterned programs such as Bernstein-Vazirani.) *)
    let closeness v =
      List.fold_left (fun acc u -> acc +. reliability.(v).(u)) 0.0 region
    in
    let anchor =
      List.fold_left
        (fun champion candidate ->
          if closeness candidate < closeness champion then candidate
          else champion)
        (List.hd region) region
    in
    greedy_place ~node_penalty ~candidates:region ~distance ~anchor
      interactions activity
    |> layout_of_placement ~programs ~physicals
