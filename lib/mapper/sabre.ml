open Vqc_circuit
module Device = Vqc_device.Device

(* Gates whose operands are routable obstacles: 2q gates only; everything
   else executes unconditionally once its predecessors ran. *)
let blocking gate =
  match gate with
  | Gate.Cnot _ | Gate.Swap _ -> true
  | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> false

let route ?(lookahead_size = 20) ?(lookahead_weight = 0.5) ?(decay = 0.001)
    ?(prune = true) cost layout circuit =
  Vqc_obs.Span.with_span ~source:"mapper" "mapper.sabre" @@ fun () ->
  let device = Cost.device cost in
  let dag = Dag.build circuit in
  let count = Dag.gate_count dag in
  let gate_at = Dag.gate dag in
  let predecessors_left =
    Array.init count (Dag.predecessor_count dag)
  in
  let ctx = ref layout in
  let output = ref [] in
  let swaps = ref 0 in
  let emit gate = output := gate :: !output in
  let physical prog = Layout.physical_of_program !ctx prog in
  let executable gate =
    match gate with
    | Gate.Cnot { control; target } ->
      Cost.coupled cost (physical control) (physical target)
    | Gate.Swap (a, b) -> Cost.coupled cost (physical a) (physical b)
    | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> true
  in
  (* front layer as a mutable set of gate indices *)
  let front = Hashtbl.create 16 in
  Array.iteri
    (fun i left -> if left = 0 then Hashtbl.replace front i ())
    predecessors_left;
  let complete index =
    Hashtbl.remove front index;
    List.iter
      (fun s ->
        predecessors_left.(s) <- predecessors_left.(s) - 1;
        if predecessors_left.(s) = 0 then Hashtbl.replace front s ())
      (Dag.successors dag index)
  in
  let executed = ref 0 in
  let decay_factor = Array.make (Layout.physicals layout) 1.0 in
  let decay_reset_period = 5 in
  let since_reset = ref 0 in
  (* flush every currently executable front gate (in index order for
     determinism) to a fixpoint *)
  let rec flush () =
    let ready =
      Hashtbl.fold (fun i () acc -> i :: acc) front []
      |> List.sort compare
      |> List.filter (fun i -> executable (gate_at i))
    in
    if ready <> [] then begin
      List.iter
        (fun i ->
          emit (Gate.relabel physical (gate_at i));
          incr executed;
          complete i)
        ready;
      flush ()
    end
  in
  let front_two_qubit () =
    Hashtbl.fold
      (fun i () acc -> if blocking (gate_at i) then i :: acc else acc)
      front []
    |> List.sort compare
  in
  (* bounded successor set for the lookahead term *)
  let extended_set stuck =
    let seen = Hashtbl.create 32 in
    let queue = Queue.create () in
    List.iter (fun i -> Queue.add i queue) stuck;
    let result = ref [] in
    let budget = ref lookahead_size in
    while !budget > 0 && not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.replace seen s ();
            if blocking (gate_at s) && !budget > 0 then begin
              result := s :: !result;
              decr budget
            end;
            Queue.add s queue
          end)
        (Dag.successors dag i)
    done;
    !result
  in
  (* Candidate evaluation works on the gates' *physical* pairs under the
     current layout: applying candidate swap (u, v) just substitutes
     u <-> v in each pair, so no trial layout is materialized.  The fold
     below runs the exact float operations (same values, same order) as
     scoring a [Layout.swap_physical] copy did, so scores — and hence the
     chosen swaps and the emitted gate stream — are bit-identical. *)
  let physical_pairs indices =
    List.map
      (fun i ->
        match gate_at i with
        | Gate.Cnot { control; target } -> (physical control, physical target)
        | Gate.Swap (a, b) -> (physical a, physical b)
        | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ ->
          assert false (* stuck/extended contain blocking gates only *))
      indices
  in
  let heuristic_swapped ~stuck_pairs ~stuck_count ~ext_pairs ~ext_count u v =
    let substitute p = if p = u then v else if p = v then u else p in
    let mean pairs count =
      match count with
      | 0 -> 0.0
      | _ ->
        List.fold_left
          (fun acc (pa, pb) ->
            acc +. Cost.distance cost (substitute pa) (substitute pb))
          0.0 pairs
        /. float_of_int count
    in
    mean stuck_pairs stuck_count +. (lookahead_weight *. mean ext_pairs ext_count)
  in
  (* the couplers touching a stuck gate's qubit, in coupling order: the
     first of equal scores wins, so the order is part of the output *)
  let couplers = Cost.couplers cost in
  let active = Bytes.make (Layout.physicals layout) '\000' in
  let candidate_swaps stuck =
    let mark value =
      List.iter
        (fun i ->
          List.iter
            (fun q -> Bytes.set active (physical q) value)
            (Gate.qubits (gate_at i)))
        stuck
    in
    mark '\001';
    let candidates =
      Array.fold_right
        (fun ((u, v) as coupler) acc ->
          if Bytes.get active u = '\001' || Bytes.get active v = '\001' then
            coupler :: acc
          else acc)
        couplers []
    in
    mark '\000';
    candidates
  in
  let steps_bound = (count * 32) + 1024 in
  let steps = ref 0 in
  while !executed < count do
    incr steps;
    if !steps > steps_bound then
      invalid_arg "Sabre.route: routing failed to make progress";
    flush ();
    if !executed < count then begin
      let stuck = front_two_qubit () in
      if stuck = [] then
        (* only possible transiently; flush will make progress *)
        ()
      else begin
        let extended = extended_set stuck in
        let stuck_pairs = physical_pairs stuck in
        let stuck_count = List.length stuck in
        let ext_pairs = physical_pairs extended in
        let ext_count = List.length extended in
        (* Lookahead-window pruning: [Cost.window_sums] gives, per
           physical qubit, the summed distance of the window's pairs
           touching it, from which a candidate's score is cheaply
           lower-bounded *before* the full evaluation (decay factors are
           >= 1, so the undecayed heuristic bound still holds).  A
           candidate is skipped only when its bound clears the best score
           by a relative margin wide enough to absorb float
           non-associativity between the two computations; bounds inside
           the margin fall back to full evaluation, so the argmin — and
           the emitted stream — never changes.  The bound needs
           [decay >= 0] and [lookahead_weight >= 0]; pruning turns itself
           off otherwise. *)
        let pruning = prune && decay >= 0.0 && lookahead_weight >= 0.0 in
        let stuck_total, stuck_touched =
          if pruning then Cost.window_sums cost stuck_pairs else (0.0, [||])
        in
        let ext_total, ext_touched =
          if pruning then Cost.window_sums cost ext_pairs else (0.0, [||])
        in
        let score_lower_bound u v =
          let window_part total touched count =
            match count with
            | 0 -> 0.0
            | _ ->
              Float.max 0.0
                ((total -. touched.(u) -. touched.(v)) /. float_of_int count)
          in
          window_part stuck_total stuck_touched stuck_count
          +. (lookahead_weight *. window_part ext_total ext_touched ext_count)
          +. (Cost.swap_cost cost u v /. 100.0)
        in
        let best = ref None in
        List.iter
          (fun (u, v) ->
            let skip =
              pruning
              &&
              match !best with
              | None -> false
              | Some (best_score, _, _) ->
                score_lower_bound u v
                > best_score +. (1e-9 *. (1.0 +. Float.abs best_score))
            in
            if not skip then begin
              let score =
                heuristic_swapped ~stuck_pairs ~stuck_count ~ext_pairs
                  ~ext_count u v
                *. decay_factor.(u) *. decay_factor.(v)
                (* the swap itself costs reliability under the noise-aware
                   model: fold it in so weak links are avoided *)
                +. (Cost.swap_cost cost u v /. 100.0)
              in
              match !best with
              | Some (best_score, _, _) when best_score <= score -> ()
              | _ -> best := Some (score, u, v)
            end)
          (candidate_swaps stuck);
        match !best with
        | None -> invalid_arg "Sabre.route: no candidate swap"
        | Some (_, u, v) ->
          emit (Gate.Swap (u, v));
          incr swaps;
          ctx := Layout.swap_physical !ctx u v;
          decay_factor.(u) <- decay_factor.(u) +. decay;
          decay_factor.(v) <- decay_factor.(v) +. decay;
          incr since_reset;
          if !since_reset >= decay_reset_period then begin
            Array.fill decay_factor 0 (Array.length decay_factor) 1.0;
            since_reset := 0
          end
      end
    end
  done;
  let stats =
    { Router.swaps_inserted = !swaps; astar_expansions = 0; greedy_fallbacks = 0 }
  in
  Router.record_route ~router:"sabre" stats;
  {
    Router.circuit =
      Circuit.of_gates
        ~cbits:(Circuit.num_cbits circuit)
        (Device.num_qubits device)
        (List.rev !output);
    initial = layout;
    final = !ctx;
    stats;
  }
