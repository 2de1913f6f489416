open Vqc_circuit
module Astar = Vqc_graph.Astar
module Device = Vqc_device.Device

let log_src = Logs.Src.create "vqc.router" ~doc:"SWAP-insertion routing"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace
module Span = Vqc_obs.Span
module Json = Vqc_obs.Json

(* Shared with Sabre (same names resolve to the same metrics): every
   routing pass adds its per-circuit totals once, at the end. *)
let routes_total = Metrics.counter "mapper.routes"
let swaps_total = Metrics.counter "mapper.swaps_inserted"
let expansions_total = Metrics.counter "mapper.astar_expansions"
let fallbacks_total = Metrics.counter "mapper.greedy_fallbacks"

type stats = {
  swaps_inserted : int;
  astar_expansions : int;
  greedy_fallbacks : int;
}

type result = {
  circuit : Circuit.t;
  initial : Layout.t;
  final : Layout.t;
  stats : stats;
}

let record_route ~router (stats : stats) =
  Metrics.incr routes_total;
  Metrics.add swaps_total stats.swaps_inserted;
  Metrics.add expansions_total stats.astar_expansions;
  Metrics.add fallbacks_total stats.greedy_fallbacks;
  if Trace.enabled () then
    Trace.emit ~source:"mapper" ~event:"route"
      [
        ("router", Json.String router);
        ("swaps_inserted", Json.Int stats.swaps_inserted);
        ("astar_expansions", Json.Int stats.astar_expansions);
        ("greedy_fallbacks", Json.Int stats.greedy_fallbacks);
      ]

let physical_pair layout (a, b) =
  (Layout.physical_of_program layout a, Layout.physical_of_program layout b)

let executable cost layout pairs =
  List.for_all
    (fun pair ->
      let u, v = physical_pair layout pair in
      Cost.coupled cost u v)
    pairs

(* ---- bridge execution (extension; see mli) ------------------------- *)

(* Cheapest middle qubit for a bridged CNOT between physical [u] and [v]
   (two CNOTs across each leg), if the pair sits at hop distance 2. *)
let bridge_middle cost u v =
  if Cost.coupled cost u v then None
  else begin
    let best = ref None in
    Array.iter
      (fun m ->
        if Cost.coupled cost m v then begin
          let total = 2.0 *. (Cost.cnot_cost cost u m +. Cost.cnot_cost cost m v) in
          match !best with
          | Some (best_total, _) when best_total <= total -> ()
          | _ -> best := Some (total, m)
        end)
      (Cost.neighbors cost u);
    !best
  end

(* [bridge_middle cost u v <> None], without building the answer. *)
let bridgeable_pair cost u v =
  (not (Cost.coupled cost u v))
  && Array.exists (fun m -> Cost.coupled cost m v) (Cost.neighbors cost u)

(* A layer's two-qubit obligations: program CNOTs may execute bridged
   (when enabled), program SWAPs always need adjacency. *)
type obligation = { operands : int * int; bridgeable : bool }

let layer_obligations ~bridges layer =
  List.filter_map
    (fun gate ->
      match gate with
      | Gate.Cnot { control; target } ->
        Some { operands = (control, target); bridgeable = bridges }
      | Gate.Swap (a, b) -> Some { operands = (a, b); bridgeable = false }
      | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> None)
    layer

(* Whether an obligation between physical [u] and [v] can execute. *)
let pair_satisfied cost bridgeable u v =
  Cost.coupled cost u v || (bridgeable && bridgeable_pair cost u v)

let obligation_satisfied cost layout { operands; bridgeable } =
  let u, v = physical_pair layout operands in
  pair_satisfied cost bridgeable u v

(* Cost of executing one obligation between physical [u] and [v]. *)
let pair_execution_cost cost bridgeable u v =
  if Cost.coupled cost u v then Cost.cnot_cost cost u v
  else if bridgeable then
    match bridge_middle cost u v with
    | Some (total, _) -> total
    | None -> invalid_arg "Router: unsatisfied obligation at execution"
  else invalid_arg "Router: unsatisfied obligation at execution"

(* Mutable emission context shared by both routers. *)
type emitter = {
  mutable layout : Layout.t;
  mutable rev_gates : Gate.t list;
  mutable swaps : int;
}

let emit ctx gate = ctx.rev_gates <- gate :: ctx.rev_gates

let emit_swap ctx u v =
  emit ctx (Gate.Swap (u, v));
  ctx.swaps <- ctx.swaps + 1;
  ctx.layout <- Layout.swap_physical ctx.layout u v

let emit_relabeled ctx gate =
  emit ctx (Gate.relabel (Layout.physical_of_program ctx.layout) gate)

(* Move the occupant of [src] along [path] until it is adjacent to the
   path's last node, i.e. swap across every edge except the final one. *)
let walk_adjacent ctx path =
  let rec step = function
    | a :: (b :: _ :: _ as rest) ->
      emit_swap ctx a b;
      step rest
    | [ _; _ ] | [ _ ] | [] -> ()
  in
  step path

(* Move the occupant of the path's head all the way to its last node. *)
let walk_full ctx path =
  let rec step = function
    | a :: (b :: _ as rest) ->
      emit_swap ctx a b;
      step rest
    | [ _ ] | [] -> ()
  in
  step path

(* One-gate routing with no lookahead: pick the meeting coupler that
   minimizes route + execution cost, drag the first operand onto it, then
   bring the second operand adjacent. *)
let greedy_satisfy ctx cost (a, b) =
  let adjacent () =
    let pa, pb = physical_pair ctx.layout (a, b) in
    Cost.coupled cost pa pb
  in
  if not (adjacent ()) then begin
    let pa, pb = physical_pair ctx.layout (a, b) in
    let best = ref None in
    let consider anchor other total =
      match !best with
      | Some (best_total, _, _) when best_total <= total -> ()
      | _ -> best := Some (total, anchor, other)
    in
    Array.iter
      (fun (x, y) ->
        let execution = Cost.cnot_cost cost x y in
        consider x y
          (Cost.distance cost pa x +. Cost.distance cost pb y +. execution);
        consider y x
          (Cost.distance cost pa y +. Cost.distance cost pb x +. execution))
      (Cost.couplers cost);
    match !best with
    | None -> invalid_arg "Router: device has no couplers"
    | Some (_, anchor, _) ->
      walk_full ctx (Cost.route cost pa anchor);
      if not (adjacent ()) then begin
        let _, pb = physical_pair ctx.layout (a, b) in
        walk_adjacent ctx (Cost.route cost pb anchor)
      end
  end

(* ---- layered A* routing -------------------------------------------

   States are layouts plus an [executed] flag.  From a layout in which
   every pair is adjacent, an "execute" transition pays the summed CNOT
   execution costs and reaches the terminal state.  This makes the
   search minimize route cost *and* execution-link cost together — under
   the reliability model a free adjacency across a terrible link is not
   a bargain (paper Algorithm 1: D covers the full cost to entangle).

   A state's layout is its program->physical assignment packed into a
   string: one byte per program qubit on devices under 256 qubits, more
   above (big-endian, fixed width).  The string is also the state's
   duplicate key ("X"-prefixed once executed), so a successor costs one
   copy with two entries rewritten and nothing else.  Each successor
   records the coupler it swapped across, which the replay emits. *)

type search_state = {
  packed : string;
  swap_count : int;
  executed : bool;
  via : int;  (* index into [Cost.couplers] of the producing swap, or -1 *)
}

(* [default_lookahead] discounts the entangle cost of the following
   layer's gates, charged at the execute transition: optimizing one layer
   in isolation happily strands qubits in positions that cost the next
   layer dearly (Zulehner et al. use a lookahead for the same reason). *)
let default_lookahead = 0.5

(* Bytes per program qubit in a packed state: one below 256 physical
   qubits (where {!Layout.key} packs one too), else as many as the
   largest physical index needs, and at least two. *)
let packed_width physicals =
  let rec width bytes limit =
    if physicals - 1 <= limit then bytes
    else width (bytes + 1) ((limit lsl 8) lor 255)
  in
  if physicals < 256 then 1 else width 2 65535

let layer_search cost ~max_additional_hops ~max_expansions ~lookahead
    ~next_pairs layout obligations =
  let couplers = Cost.couplers cost in
  let physicals = Layout.physicals layout in
  let programs = Layout.programs layout in
  let width = packed_width physicals in
  let phys packed prog =
    if width = 1 then Char.code (String.unsafe_get packed prog)
    else begin
      let at = prog * width in
      let value = ref 0 in
      for i = 0 to width - 1 do
        value :=
          (!value lsl 8) lor Char.code (String.unsafe_get packed (at + i))
      done;
      !value
    end
  in
  let set bytes prog value =
    if width = 1 then Bytes.unsafe_set bytes prog (Char.unsafe_chr value)
    else begin
      let at = prog * width in
      for i = 0 to width - 1 do
        Bytes.unsafe_set bytes (at + i)
          (Char.unsafe_chr ((value lsr (8 * (width - 1 - i))) land 255))
      done
    end
  in
  let start =
    let bytes = Bytes.create (programs * width) in
    for prog = 0 to programs - 1 do
      set bytes prog (Layout.physical_of_program layout prog)
    done;
    Bytes.unsafe_to_string bytes
  in
  let min_moves packed =
    List.fold_left
      (fun acc { operands = a, b; bridgeable } ->
        let direct =
          Cost.hops_to_adjacency cost (phys packed a) (phys packed b)
        in
        acc + if bridgeable then max 0 (direct - 1) else direct)
      0 obligations
  in
  let budget =
    match max_additional_hops with
    | None -> max_int
    | Some mah -> min_moves start + mah
  in
  let satisfied packed =
    List.for_all
      (fun { operands = a, b; bridgeable } ->
        pair_satisfied cost bridgeable (phys packed a) (phys packed b))
      obligations
  in
  let execution_cost packed =
    let this_layer =
      List.fold_left
        (fun acc { operands = a, b; bridgeable } ->
          acc
          +. pair_execution_cost cost bridgeable (phys packed a)
               (phys packed b))
        0.0 obligations
    in
    let next_layer =
      List.fold_left
        (fun acc (a, b) ->
          acc +. Cost.entangle_cost cost (phys packed a) (phys packed b))
        0.0 next_pairs
    in
    this_layer +. (lookahead *. next_layer)
  in
  (* Per-expansion scratch, reset after each use: which program qubit
     sits on each physical qubit, and which physical qubits the layer's
     obligations occupy. *)
  let occupant = Array.make physicals (-1) in
  let active = Bytes.make physicals '\000' in
  let successors state =
    if state.executed then []
    else begin
      let packed = state.packed in
      for prog = 0 to programs - 1 do
        occupant.(phys packed prog) <- prog
      done;
      List.iter
        (fun { operands = a, b; _ } ->
          Bytes.unsafe_set active (phys packed a) '\001';
          Bytes.unsafe_set active (phys packed b) '\001')
        obligations;
      let swaps = ref [] in
      for i = Array.length couplers - 1 downto 0 do
        let u, v = couplers.(i) in
        if
          Bytes.unsafe_get active u = '\001'
          || Bytes.unsafe_get active v = '\001'
        then begin
          let bytes = Bytes.of_string packed in
          let pu = occupant.(u) and pv = occupant.(v) in
          if pu >= 0 then set bytes pu v;
          if pv >= 0 then set bytes pv u;
          let next =
            {
              packed = Bytes.unsafe_to_string bytes;
              swap_count = state.swap_count + 1;
              executed = false;
              via = i;
            }
          in
          (* with no MAH budget the bound is [max_int] and the prune
             can never fire — skip the [min_moves] recomputation *)
          if
            not
              (budget <> max_int
              && next.swap_count + min_moves next.packed > budget)
          then swaps := (next, Cost.swap_cost cost u v) :: !swaps
        end
      done;
      for prog = 0 to programs - 1 do
        occupant.(phys packed prog) <- -1
      done;
      List.iter
        (fun { operands = a, b; _ } ->
          Bytes.unsafe_set active (phys packed a) '\000';
          Bytes.unsafe_set active (phys packed b) '\000')
        obligations;
      if satisfied packed then
        ({ state with executed = true; via = -1 }, execution_cost packed)
        :: !swaps
      else !swaps
    end
  in
  let heuristic state =
    if state.executed then 0.0
    else
      List.fold_left
        (fun acc { operands = a, b; _ } ->
          acc
          +. Cost.entangle_cost cost (phys state.packed a)
               (phys state.packed b))
        0.0 obligations
  in
  let problem =
    {
      Astar.start =
        { packed = start; swap_count = 0; executed = false; via = -1 };
      is_goal = (fun state -> state.executed);
      successors;
      heuristic;
      key =
        (fun state ->
          if state.executed then "X" ^ state.packed else state.packed);
    }
  in
  match Astar.search_path ~max_expansions problem with
  | None -> None
  | Some (states, _, expanded) ->
    (* the swaps along the path, in order; the execute step records none *)
    let swaps =
      List.filter_map
        (fun state -> if state.via < 0 then None else Some couplers.(state.via))
        states
    in
    Some (swaps, expanded)

(* ---- layer-search memo ---------------------------------------------

   The catalog x policy matrix re-routes the same circuits under
   overlapping policies: vqm's (layout, routing) candidates are a subset
   of vqa+vqm's, themselves a subset of vqa+vqm+readout's, and the
   hop-cost route is shared by five policies.  A layer search depends
   only on (cost table, current layout, the layer's obligations, the
   next layer's pairs, search parameters) — all captured in the key
   below — so its outcome can be replayed: emitting the recorded swap
   sequence reproduces the gates, layout, stats, and traces of
   re-running the search byte for byte.  Keying on {!Cost.id} (unique
   per table) means a hit can only replay a search that would have been
   identical; tables from plain [Cost.make] carry fresh ids and simply
   never hit — sharing comes from {!Cost.cached}.

   The table is process-wide (compiles run concurrently under the
   service pool, hence the mutex) and bounded: on overflow it is
   dropped wholesale — it is a memo, not a correctness structure. *)

type memo_entry = {
  found : bool;  (* [false] replays a failed search (expansion cap) *)
  memo_swaps : (int * int) list;  (* physical swaps in emission order *)
  memo_expanded : int;  (* expansions the original search charged *)
}

let memo_capacity = 32_768
let memo_lock = Mutex.create ()
(* guarded by memo_lock *)
let memo_table : (string, memo_entry) Hashtbl.t = Hashtbl.create 1024
let memo_hits = Metrics.counter "mapper.layer_memo_hits"
let memo_misses = Metrics.counter "mapper.layer_memo_misses"

let memo_clear () =
  Mutex.lock memo_lock;
  Hashtbl.reset memo_table;
  Mutex.unlock memo_lock

let memo_find key =
  Mutex.lock memo_lock;
  let entry = Hashtbl.find_opt memo_table key in
  Mutex.unlock memo_lock;
  (match entry with
  | Some _ -> Metrics.incr memo_hits
  | None -> Metrics.incr memo_misses);
  entry

let memo_store key entry =
  Mutex.lock memo_lock;
  if Hashtbl.length memo_table >= memo_capacity then Hashtbl.reset memo_table;
  Hashtbl.replace memo_table key entry;
  Mutex.unlock memo_lock

(* The layout key may be raw bytes (see {!Layout.key}), so it is length-
   prefixed to keep the concatenation unambiguous. *)
let memo_key cost ~max_additional_hops ~max_expansions ~lookahead ~next_pairs
    layout obligations =
  let b = Buffer.create 96 in
  Buffer.add_string b (string_of_int (Cost.id cost));
  (match max_additional_hops with
  | None -> Buffer.add_string b "/*"
  | Some mah ->
    Buffer.add_char b '/';
    Buffer.add_string b (string_of_int mah));
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int max_expansions);
  Buffer.add_char b '/';
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float lookahead));
  Buffer.add_char b '/';
  let layout_key = Layout.key layout in
  Buffer.add_string b (string_of_int (String.length layout_key));
  Buffer.add_char b ':';
  Buffer.add_string b layout_key;
  List.iter
    (fun { operands = oa, ob; bridgeable } ->
      Buffer.add_char b (if bridgeable then 'B' else 'g');
      Buffer.add_string b (string_of_int oa);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int ob))
    obligations;
  Buffer.add_char b '/';
  List.iter
    (fun (oa, ob) ->
      Buffer.add_string b (string_of_int oa);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int ob);
      Buffer.add_char b ';')
    next_pairs;
  Buffer.contents b

let route ?max_additional_hops ?(max_expansions = 100_000)
    ?(lookahead = default_lookahead) ?(bridges = false) ?(memo = true) cost
    layout circuit =
  Span.with_span ~source:"mapper" "mapper.route" @@ fun () ->
  let device = Cost.device cost in
  let ctx = { layout; rev_gates = []; swaps = 0 } in
  let expansions = ref 0 in
  let fallbacks = ref 0 in
  (* Returns true when every obligation of the layer is satisfiable. *)
  let search_layer obligations next_pairs =
    (* runs the A* search, replays its plan into [ctx], and returns the
       memoizable summary of what happened *)
    match
      layer_search cost ~max_additional_hops ~max_expansions ~lookahead
        ~next_pairs ctx.layout obligations
    with
    | Some (swaps, expanded) ->
      expansions := !expansions + expanded;
      List.iter (fun (u, v) -> emit_swap ctx u v) swaps;
      { found = true; memo_swaps = swaps; memo_expanded = expanded }
    | None -> { found = false; memo_swaps = []; memo_expanded = 0 }
  in
  let solve_layer obligations next_pairs =
    List.for_all (obligation_satisfied cost ctx.layout) obligations
    ||
    if not memo then (search_layer obligations next_pairs).found
    else begin
      let key =
        memo_key cost ~max_additional_hops ~max_expansions ~lookahead
          ~next_pairs ctx.layout obligations
      in
      match memo_find key with
      | Some { found; memo_swaps; memo_expanded } ->
        (* replaying the recorded swaps reproduces the original search's
           emissions and layout; charging its expansion count keeps the
           stats (and everything derived from them) byte-identical *)
        expansions := !expansions + memo_expanded;
        List.iter (fun (u, v) -> emit_swap ctx u v) memo_swaps;
        found
      | None ->
        let entry = search_layer obligations next_pairs in
        memo_store key entry;
        entry.found
    end
  in
  (* Emit a CNOT: directly when adjacent, else as a bridge through the
     cheapest middle (guaranteed to exist once the layer is solved). *)
  let emit_cnot control target =
    let u = Layout.physical_of_program ctx.layout control in
    let v = Layout.physical_of_program ctx.layout target in
    if Cost.coupled cost u v then
      emit ctx (Gate.Cnot { control = u; target = v })
    else begin
      match bridge_middle cost u v with
      | Some (_, m) ->
        emit ctx (Gate.Cnot { control = u; target = m });
        emit ctx (Gate.Cnot { control = m; target = v });
        emit ctx (Gate.Cnot { control = u; target = m });
        emit ctx (Gate.Cnot { control = m; target = v })
      | None -> invalid_arg "Router: no bridge middle at emission"
    end
  in
  let route_layer layer next_layer =
    let next_pairs =
      match next_layer with
      | Some l -> Layers.two_qubit_pairs l
      | None -> []
    in
    if solve_layer (layer_obligations ~bridges layer) next_pairs then
      List.iter
        (fun gate ->
          match gate with
          | Gate.Cnot { control; target } -> emit_cnot control target
          | Gate.Swap _ | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _
            ->
            emit_relabeled ctx gate)
        layer
    else begin
      (* Expansion cap hit (or MAH budget unreachable): serialize the
         layer — its gates are independent, so satisfying and emitting
         them one at a time along cheapest routes is always sound. *)
      incr fallbacks;
      Log.warn (fun m ->
          m "layer search exhausted (%d gates); serializing the layer"
            (List.length layer));
      let place gate =
        (match gate with
        | Gate.Cnot { control; target } ->
          greedy_satisfy ctx cost (control, target)
        | Gate.Swap (a, b) -> greedy_satisfy ctx cost (a, b)
        | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> ());
        emit_relabeled ctx gate
      in
      List.iter place layer
    end
  in
  let rec walk_layers = function
    | [] -> ()
    | [ last ] -> route_layer last None
    | layer :: (next :: _ as rest) ->
      route_layer layer (Some next);
      walk_layers rest
  in
  walk_layers (Layers.partition circuit);
  let stats =
    {
      swaps_inserted = ctx.swaps;
      astar_expansions = !expansions;
      greedy_fallbacks = !fallbacks;
    }
  in
  record_route ~router:"astar" stats;
  {
    circuit =
      Circuit.of_gates
        ~cbits:(Circuit.num_cbits circuit)
        (Device.num_qubits device)
        (List.rev ctx.rev_gates);
    initial = layout;
    final = ctx.layout;
    stats;
  }

let route_greedy cost layout circuit =
  Span.with_span ~source:"mapper" "mapper.route_greedy" @@ fun () ->
  let device = Cost.device cost in
  let ctx = { layout; rev_gates = []; swaps = 0 } in
  let place gate =
    (match gate with
    | Gate.Cnot { control; target } -> greedy_satisfy ctx cost (control, target)
    | Gate.Swap (a, b) -> greedy_satisfy ctx cost (a, b)
    | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> ());
    emit_relabeled ctx gate
  in
  List.iter place (Circuit.gates circuit);
  let stats =
    { swaps_inserted = ctx.swaps; astar_expansions = 0; greedy_fallbacks = 0 }
  in
  record_route ~router:"greedy" stats;
  {
    circuit =
      Circuit.of_gates
        ~cbits:(Circuit.num_cbits circuit)
        (Device.num_qubits device)
        (List.rev ctx.rev_gates);
    initial = layout;
    final = ctx.layout;
    stats;
  }
