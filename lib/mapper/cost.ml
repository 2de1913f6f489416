module Device = Vqc_device.Device
module Graph = Vqc_graph.Graph
module Paths = Vqc_graph.Paths

type model = Hops | Reliability

type t = {
  id : int;  (* process-unique stamp; memo tables key on it *)
  model : model;
  device : Device.t;
  cost_graph : Graph.t;  (* weight = cost of one SWAP across the edge *)
  dist : float array array;  (* all-pairs cheapest swap-route cost *)
  adjacency : float array array;
  hop : int array array;
  (* Routing tables, so the searches never go back to the device's
     hash tables: the couplers in [Device.coupling] order, an n x n
     adjacency bitmap, each qubit's neighbours in increasing order, and
     the per-orientation CNOT and SWAP costs of every coupler (NaN off
     the coupling map). *)
  couplers : (int * int) array;
  linked : Bytes.t;
  neighbors : int array array;
  cnot : float array array;
  swap : float array array;
}

(* Stamps are only ever cache keys — the counter is mutex-protected so
   concurrently-compiling domains never mint the same id. *)
let stamp_lock = Mutex.create ()
let next_stamp = ref 0 (* guarded by stamp_lock *)

let fresh_stamp () =
  Mutex.lock stamp_lock;
  let id = !next_stamp in
  incr next_stamp;
  Mutex.unlock stamp_lock;
  id

let execution_cost model device u v =
  match model with
  | Hops -> 0.0
  | Reliability ->
    let p = Float.max 1e-12 (Device.cnot_success device u v) in
    -.log p

let default_swap_bias = 3.2

let make ?(swap_bias = default_swap_bias) device model =
  let cost_graph =
    match model with
    | Hops -> Device.hop_graph device
    | Reliability ->
      (* The bias is relative to the device's mean SWAP cost so that its
         effect is scale-free: when error rates shrink 10x, SWAPs become
         10x cheaper and the router may roam proportionally further for
         good links (paper Table 2's benefit *grows* at lower error
         rates precisely because steering gets cheaper). *)
      let raw = Device.swap_cost_graph device in
      let total = Graph.fold_edges (fun _ _ w acc -> acc +. w) raw 0.0 in
      let mean_swap_cost = total /. float_of_int (max 1 (Graph.edge_count raw)) in
      Graph.map_weights (fun _ _ w -> w +. (swap_bias *. mean_swap_cost)) raw
  in
  let dist = Paths.all_pairs cost_graph in
  let hop = Device.hop_distance device in
  let n = Device.num_qubits device in
  let couplers = Array.of_list (Device.coupling device) in
  let linked = Bytes.make (n * n) '\000' in
  let cnot = Array.make_matrix n n Float.nan in
  let swap = Array.make_matrix n n Float.nan in
  let orient u v =
    Bytes.set linked ((u * n) + v) '\001';
    cnot.(u).(v) <- execution_cost model device u v;
    swap.(u).(v) <- Graph.edge_weight_exn cost_graph u v
  in
  Array.iter
    (fun (u, v) ->
      orient u v;
      orient v u)
    couplers;
  let adjacency = Array.make_matrix n n 0.0 in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if p <> q then begin
        let best = ref Float.infinity in
        for i = 0 to Array.length couplers - 1 do
          let a, b = couplers.(i) in
          let route =
            Float.min
              (dist.(p).(a) +. dist.(q).(b))
              (dist.(p).(b) +. dist.(q).(a))
          in
          let via = route +. cnot.(a).(b) in
          if via < !best then best := via
        done;
        adjacency.(p).(q) <- !best
      end
    done
  done;
  {
    id = fresh_stamp ();
    model;
    device;
    cost_graph;
    dist;
    adjacency;
    hop;
    couplers;
    linked;
    neighbors =
      Array.init n (fun u -> Array.of_list (Device.neighbors device u));
    cnot;
    swap;
  }

(* ---- construction cache --------------------------------------------

   [make] runs Dijkstra from every node plus an O(n^2 * couplers)
   adjacency sweep; a serving fleet recompiling against the same device
   pays that once per (model, bias) instead of once per compile.  Keyed
   on the *identity* of the device (calibrations are immutable once
   built), most-recently-used first, bounded so epoch churn cannot leak
   old devices.  Sharing one [t] across compiles also shares its [id] —
   which is what lets the router's layer memo hit across policies. *)

let cache_devices = 8
let cache_lock = Mutex.create ()

(* guarded by cache_lock *)
let cache : (Device.t * ((model * float) * t) list ref) list ref = ref []

let cached ?(swap_bias = default_swap_bias) device model =
  Mutex.lock cache_lock;
  let entry =
    match List.find_opt (fun (d, _) -> d == device) !cache with
    | Some (_, models) ->
      cache :=
        (device, models) :: List.filter (fun (d, _) -> d != device) !cache;
      models
    | None ->
      let models = ref [] in
      let keep, _ =
        List.fold_left
          (fun (keep, n) slot ->
            if n < cache_devices - 1 then (slot :: keep, n + 1) else (keep, n))
          ([], 0) !cache
      in
      cache := (device, models) :: List.rev keep;
      models
  in
  let found = List.assoc_opt (model, swap_bias) !entry in
  Mutex.unlock cache_lock;
  match found with
  | Some t -> t
  | None ->
    (* build outside the lock: construction is the expensive part and
       [make] is pure.  Two concurrent misses may both build; the first
       table stored stays, and both callers get that one (so they share
       one {!id}, and the second build is dropped). *)
    let t = make ~swap_bias device model in
    Mutex.lock cache_lock;
    (if not (List.mem_assoc (model, swap_bias) !entry) then
       entry := ((model, swap_bias), t) :: !entry);
    let t =
      match List.assoc_opt (model, swap_bias) !entry with
      | Some t -> t
      | None -> t
    in
    Mutex.unlock cache_lock;
    t

let id t = t.id
let model t = t.model
let device t = t.device

let coupled t u v =
  let n = Array.length t.neighbors in
  u >= 0 && u < n && v >= 0 && v < n
  && Bytes.unsafe_get t.linked ((u * n) + v) <> '\000'

let swap_cost t u v =
  if not (coupled t u v) then
    invalid_arg (Printf.sprintf "Cost.swap_cost: %d--%d not coupled" u v);
  t.swap.(u).(v)

let cnot_cost t u v =
  if not (coupled t u v) then
    invalid_arg (Printf.sprintf "Cost.cnot_cost: %d--%d not coupled" u v);
  t.cnot.(u).(v)

let couplers t = t.couplers
let neighbors t u = t.neighbors.(u)

let distance t p q = t.dist.(p).(q)
let entangle_cost t p q = t.adjacency.(p).(q)
let hops_to_adjacency t p q = max 0 (t.hop.(p).(q) - 1)

let window_sums t pairs =
  let n = Array.length t.dist in
  let touched = Array.make n 0.0 in
  let total = ref 0.0 in
  List.iter
    (fun (u, v) ->
      let d = t.dist.(u).(v) in
      total := !total +. d;
      touched.(u) <- touched.(u) +. d;
      if v <> u then touched.(v) <- touched.(v) +. d)
    pairs;
  (!total, touched)

let route t p q =
  match Paths.shortest_path t.cost_graph p q with
  | Some path -> path
  | None -> invalid_arg (Printf.sprintf "Cost.route: %d and %d disconnected" p q)
