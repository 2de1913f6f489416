(* Tests for the core library: layouts, cost models, routing and the full
   compiler.  The central property is semantic preservation: a routed
   circuit, with its inserted SWAPs interpreted as remappings, must
   replay the original program (per-qubit gate order preserved) while
   every two-qubit gate lands on a coupled pair. *)

module Gate = Vqc_circuit.Gate
module Circuit = Vqc_circuit.Circuit
module Calibration = Vqc_device.Calibration
module Device = Vqc_device.Device
module Topologies = Vqc_device.Topologies
module Calibration_model = Vqc_device.Calibration_model
module Layout = Vqc_mapper.Layout
module Cost = Vqc_mapper.Cost
module Router = Vqc_mapper.Router
module Allocation = Vqc_mapper.Allocation
module Compiler = Vqc_mapper.Compiler
module Reliability = Vqc_sim.Reliability
module Rng = Vqc_rng.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let cx c t = Gate.Cnot { control = c; target = t }
let h q = Gate.One_qubit (Gate.H, q)
let meas q = Gate.Measure { qubit = q; cbit = q }

(* ---- Layout -------------------------------------------------------- *)

let test_layout_identity () =
  let l = Layout.identity ~programs:3 ~physicals:5 in
  check_int "programs" 3 (Layout.programs l);
  check_int "physicals" 5 (Layout.physicals l);
  check_int "maps i to i" 1 (Layout.physical_of_program l 1);
  Alcotest.(check (option int)) "inverse" (Some 2) (Layout.program_of_physical l 2);
  Alcotest.(check (option int)) "free node" None (Layout.program_of_physical l 4)

let test_layout_of_assignment_validation () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check "duplicate" true
    (raises (fun () -> Layout.of_assignment ~physicals:3 [| 0; 0 |]));
  check "out of range" true
    (raises (fun () -> Layout.of_assignment ~physicals:3 [| 0; 7 |]));
  check "too many programs" true
    (raises (fun () -> Layout.identity ~programs:4 ~physicals:3))

let test_layout_swap () =
  let l = Layout.identity ~programs:2 ~physicals:4 in
  let swapped = Layout.swap_physical l 0 3 in
  check_int "program 0 moved" 3 (Layout.physical_of_program swapped 0);
  Alcotest.(check (option int)) "node 0 freed" None
    (Layout.program_of_physical swapped 0);
  (* original untouched *)
  check_int "functional" 0 (Layout.physical_of_program l 0)

let test_layout_key_distinguishes () =
  let a = Layout.identity ~programs:2 ~physicals:3 in
  let b = Layout.swap_physical a 0 1 in
  check "different keys" true (Layout.key a <> Layout.key b);
  check "equal layouts equal keys" true
    (Layout.key a = Layout.key (Layout.identity ~programs:2 ~physicals:3))

(* ---- Cost ---------------------------------------------------------- *)

let line_device () =
  let c = Calibration.create 4 in
  Calibration.set_link_error c 0 1 0.02;
  Calibration.set_link_error c 1 2 0.10;
  Calibration.set_link_error c 2 3 0.02;
  Device.make ~name:"line4" ~coupling:[ (0, 1); (1, 2); (2, 3) ] c

let test_cost_hops () =
  let cost = Cost.make (line_device ()) Cost.Hops in
  check_float "swap cost 1" 1.0 (Cost.swap_cost cost 0 1);
  check_float "cnot free" 0.0 (Cost.cnot_cost cost 0 1);
  check_float "distance" 2.0 (Cost.distance cost 0 2);
  check_int "hops to adjacency" 1 (Cost.hops_to_adjacency cost 0 2);
  check_int "adjacent pair" 0 (Cost.hops_to_adjacency cost 0 1);
  check_float "entangle cost of adjacent" 0.0 (Cost.entangle_cost cost 0 1)

let test_cost_reliability () =
  let d = line_device () in
  let cost = Cost.make ~swap_bias:0.0 d Cost.Reliability in
  check_float "swap cost = -3 log p" (-3.0 *. log 0.98) (Cost.swap_cost cost 0 1);
  check_float "cnot cost" (-.log 0.90) (Cost.cnot_cost cost 1 2);
  (* entangling 0 and 2: either execute on the weak 1-2 link directly
     after a swap, or route to meet across a strong link *)
  check "entangle cost positive" true (Cost.entangle_cost cost 0 2 > 0.0);
  check "weak link execution visible" true
    (Cost.cnot_cost cost 1 2 > Cost.cnot_cost cost 0 1)

let test_cost_swap_bias_monotone () =
  let d = line_device () in
  let low = Cost.make ~swap_bias:0.0 d Cost.Reliability in
  let high = Cost.make ~swap_bias:5.0 d Cost.Reliability in
  check "bias raises swap cost" true
    (Cost.swap_cost high 0 1 > Cost.swap_cost low 0 1);
  check_float "bias does not change cnot cost" (Cost.cnot_cost low 1 2)
    (Cost.cnot_cost high 1 2)

let test_cost_route () =
  let cost = Cost.make (line_device ()) Cost.Hops in
  Alcotest.(check (list int)) "line route" [ 0; 1; 2; 3 ] (Cost.route cost 0 3)

let prop_cost_matrices_consistent =
  (* on random devices: distances are symmetric and satisfy the triangle
     inequality; the entangle cost of an adjacent pair never exceeds its
     direct execution cost *)
  QCheck2.Test.make ~name:"cost matrices are consistent" ~count:50
    QCheck2.Gen.(pair (int_range 4 10) (int_bound 10_000))
    (fun (n, seed) ->
      let device =
        let rng = Rng.make seed in
        let coupling = Topologies.ring n in
        let calibration =
          Calibration_model.generate rng ~coupling n
        in
        Device.make ~name:"ring" ~coupling calibration
      in
      let cost = Cost.make device Cost.Reliability in
      let ok = ref true in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          if Float.abs (Cost.distance cost p q -. Cost.distance cost q p) > 1e-9
          then ok := false;
          for r = 0 to n - 1 do
            if
              Cost.distance cost p q
              > Cost.distance cost p r +. Cost.distance cost r q +. 1e-9
            then ok := false
          done
        done
      done;
      List.iter
        (fun (u, v) ->
          if Cost.entangle_cost cost u v > Cost.cnot_cost cost u v +. 1e-9 then
            ok := false)
        (Device.coupling device);
      !ok)

let prop_layout_swap_involutive =
  QCheck2.Test.make ~name:"swapping twice restores the layout" ~count:200
    QCheck2.Gen.(triple (int_range 2 8) (int_bound 100) (int_bound 100))
    (fun (n, a, b) ->
      let physicals = n + 2 in
      let u = a mod physicals and v = b mod physicals in
      let layout = Layout.identity ~programs:n ~physicals in
      u = v
      || Layout.equal layout
           (Layout.swap_physical (Layout.swap_physical layout u v) u v))

(* ---- semantic preservation ----------------------------------------- *)

(* Replay a routed physical circuit: maintain program_of_physical from the
   initial layout, treat every SWAP as a remapping, and map gates back to
   program qubits.  (Valid for programs without explicit SWAP gates.) *)
let replay_logical compiled =
  let layout = ref compiled.Compiler.initial in
  let logical = ref [] in
  List.iter
    (fun gate ->
      match gate with
      | Gate.Swap (u, v) -> layout := Layout.swap_physical !layout u v
      | Gate.One_qubit _ | Gate.Cnot _ | Gate.Measure _ | Gate.Barrier _ ->
        let back phys =
          match Layout.program_of_physical !layout phys with
          | Some prog -> prog
          | None -> Alcotest.failf "gate on unmapped physical qubit %d" phys
        in
        logical := Gate.relabel back gate :: !logical)
    (Circuit.gates compiled.Compiler.physical);
  List.rev !logical

let projection gates q =
  List.filter (fun g -> List.mem q (Gate.qubits g)) gates

let assert_routing_sound device program compiled =
  (* every 2q gate coupled *)
  List.iter
    (fun gate ->
      match gate with
      | Gate.Cnot { control; target } ->
        check "cx on coupled pair" true (Device.connected device control target)
      | Gate.Swap (u, v) ->
        check "swap on coupled pair" true (Device.connected device u v)
      | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> ())
    (Circuit.gates compiled.Compiler.physical);
  (* per-program-qubit gate order preserved *)
  let logical = replay_logical compiled in
  let original = Circuit.gates program in
  for q = 0 to Circuit.num_qubits program - 1 do
    let got = projection logical q and expected = projection original q in
    check "projection lengths" true (List.length got = List.length expected);
    check "per-qubit order preserved" true (List.for_all2 Gate.equal got expected)
  done;
  (* final layout consistent with the swaps *)
  let final = ref compiled.Compiler.initial in
  List.iter
    (fun gate ->
      match gate with
      | Gate.Swap (u, v) -> final := Layout.swap_physical !final u v
      | Gate.One_qubit _ | Gate.Cnot _ | Gate.Measure _ | Gate.Barrier _ -> ())
    (Circuit.gates compiled.Compiler.physical);
  check "final layout matches swap trace" true
    (Layout.equal !final compiled.Compiler.final)

let q20 () = Vqc_experiments.Context.default.Vqc_experiments.Context.q20

let test_routing_preserves_semantics_bv () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "bv-16").Vqc_workloads.Catalog.circuit in
  List.iter
    (fun policy ->
      assert_routing_sound device program (Compiler.compile device policy program))
    [
      Compiler.baseline; Compiler.vqm; Compiler.vqm_limited 4;
      Compiler.vqa_vqm; Compiler.sabre; Compiler.noise_sabre;
    ]

let test_routing_preserves_semantics_qft () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "qft-12").Vqc_workloads.Catalog.circuit in
  List.iter
    (fun policy ->
      assert_routing_sound device program (Compiler.compile device policy program))
    [ Compiler.baseline; Compiler.vqa_vqm; Compiler.native ~seed:3 ]

let gen_program =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let gate =
      let* kind = int_bound 3 in
      let* q = int_bound (n - 1) in
      match kind with
      | 0 | 1 ->
        let* other = int_bound (n - 2) in
        let t = if other >= q then other + 1 else other in
        return (cx q t)
      | 2 -> return (h q)
      | _ -> return (meas q)
    in
    let* gates = list_size (int_bound 25) gate in
    return (Circuit.of_gates n gates))

let prop_routing_sound_random_programs =
  QCheck2.Test.make ~name:"routing is sound on random programs" ~count:60
    gen_program (fun program ->
      let device = Calibration_model.ibm_q20 ~seed:4 in
      List.for_all
        (fun policy ->
          let compiled = Compiler.compile device policy program in
          (* raise via Alcotest.fail on violation; here just run checks *)
          try
            assert_routing_sound device program compiled;
            true
          with _ -> false)
        [ Compiler.baseline; Compiler.vqa_vqm ])

let prop_routing_sound_small_devices =
  QCheck2.Test.make ~name:"routing is sound on a line device" ~count:60
    gen_program (fun program ->
      let n = max 4 (Circuit.num_qubits program) in
      let device =
        Calibration_model.uniform_device ~name:"line"
          ~coupling:(Topologies.linear n) n ~error_2q:0.03
      in
      try
        assert_routing_sound device program
          (Compiler.compile device Compiler.vqm program);
        true
      with _ -> false)

(* ---- behaviour of the policies -------------------------------------- *)

let test_uniform_device_vqm_matches_baseline_swaps () =
  (* paper Section 5.3: with no variation VQM reduces to the baseline's
     SWAP minimization *)
  let device =
    Calibration_model.uniform_device ~name:"uniform-q20"
      ~coupling:Topologies.ibm_q20_tokyo 20 ~error_2q:0.04
  in
  let program = (Vqc_workloads.Catalog.find "bv-16").Vqc_workloads.Catalog.circuit in
  let base = Compiler.compile device Compiler.baseline program in
  let vqm = Compiler.compile device Compiler.vqm program in
  check_int "same swap count" (Compiler.swap_overhead base)
    (Compiler.swap_overhead vqm)

let test_vqm_never_below_baseline_estimate () =
  (* candidate selection guarantees VQM's estimated reliability dominates *)
  let device = q20 () in
  List.iter
    (fun name ->
      let program = (Vqc_workloads.Catalog.find name).Vqc_workloads.Catalog.circuit in
      let score policy =
        let compiled = Compiler.compile device policy program in
        Compiler.log_gate_reliability device compiled.Compiler.physical
      in
      check (name ^ ": vqm >= baseline") true
        (score Compiler.vqm >= score Compiler.baseline -. 1e-9);
      check (name ^ ": vqa+vqm >= vqm") true
        (score Compiler.vqa_vqm >= score Compiler.vqm -. 1e-9))
    [ "bv-16"; "qft-12"; "rnd-SD"; "alu" ]

let test_vqm_improves_pst_on_representative_chip () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "bv-16").Vqc_workloads.Catalog.circuit in
  let pst policy =
    let compiled = Compiler.compile device policy program in
    Reliability.pst device compiled.Compiler.physical
  in
  let base = pst Compiler.baseline in
  check "vqm improves" true (pst Compiler.vqm > base);
  check "vqa+vqm improves" true (pst Compiler.vqa_vqm > base)

let test_figure1_example () =
  (* Paper Figure 1: a 5-qubit ring where the direct route crosses weak
     links; VQM prefers the longer, stronger route (the paper's numbers
     0.42 vs 0.567 imply link successes A-B 0.6, B-C 0.7, A-E 0.9,
     E-D 0.9, D-C 0.7).  Entangle Q1 (at A=0) with Q3 (at C=2). *)
  let c = Calibration.create 5 in
  List.iter
    (fun (u, v, success) -> Calibration.set_link_error c u v (1.0 -. success))
    [ (0, 1, 0.6); (1, 2, 0.7); (2, 3, 0.7); (3, 4, 0.9); (4, 0, 0.9) ];
  let device = Device.make ~name:"fig1" ~coupling:Topologies.pentagon c in
  let program = Circuit.of_gates 3 [ cx 0 2 ] in
  let layout = Layout.identity ~programs:3 ~physicals:5 in
  let route model bias =
    let cost = Cost.make ~swap_bias:bias device model in
    let result = Router.route cost layout program in
    Reliability.pst ~coherence:false device result.Router.circuit
  in
  let hop_pst = route Cost.Hops 0.0 in
  let vqm_pst = route Cost.Reliability 0.0 in
  check "vqm beats the short route" true (vqm_pst > hop_pst)

let test_mah_zero_forbids_detours () =
  (* with MAH = 0 the reliability router may not exceed the baseline's
     minimum swap count in any layer *)
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "bv-16").Vqc_workloads.Catalog.circuit in
  let layout = Allocation.allocate device program Allocation.Locality in
  let hop = Router.route (Cost.make device Cost.Hops) layout program in
  let limited =
    Router.route ~max_additional_hops:0
      (Cost.make device Cost.Reliability)
      layout program
  in
  check "mah=0 stays near minimal swaps" true
    (limited.Router.stats.Router.swaps_inserted
    <= hop.Router.stats.Router.swaps_inserted + 2)

let test_sabre_routes_and_preserves_semantics () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "qft-12").Vqc_workloads.Catalog.circuit in
  List.iter
    (fun policy ->
      assert_routing_sound device program (Compiler.compile device policy program))
    [ Compiler.sabre; Compiler.noise_sabre ]

let test_sabre_is_deterministic () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "bv-16").Vqc_workloads.Catalog.circuit in
  let a = Compiler.compile device Compiler.noise_sabre program in
  let b = Compiler.compile device Compiler.noise_sabre program in
  check "same output" true
    (Circuit.equal a.Compiler.physical b.Compiler.physical)

let test_sabre_executes_adjacent_program_without_swaps () =
  let device =
    Calibration_model.uniform_device ~name:"line4"
      ~coupling:(Topologies.linear 4) 4 ~error_2q:0.03
  in
  let program = Circuit.of_gates 4 [ cx 0 1; cx 1 2; cx 2 3; meas 0 ] in
  let layout = Allocation.allocate device program Allocation.Trivial in
  let cost = Cost.make device Cost.Hops in
  let routed = Vqc_mapper.Sabre.route cost layout program in
  check_int "no swaps needed" 0 routed.Router.stats.Router.swaps_inserted

let test_greedy_router_routes_everything () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "qft-12").Vqc_workloads.Catalog.circuit in
  let compiled = Compiler.compile device (Compiler.native ~seed:9) program in
  assert_routing_sound device program compiled

(* ---- Allocation ---------------------------------------------------- *)

let test_allocation_policies_are_valid_layouts () =
  let device = q20 () in
  let program = (Vqc_workloads.Catalog.find "bv-16").Vqc_workloads.Catalog.circuit in
  List.iter
    (fun policy ->
      let layout = Allocation.allocate device program policy in
      check_int "covers program" (Circuit.num_qubits program)
        (Layout.programs layout))
    [ Allocation.Trivial; Allocation.Random 3; Allocation.Locality; Allocation.vqa ]

let test_allocation_random_is_seeded () =
  let device = q20 () in
  let program = Circuit.of_gates 6 [ cx 0 1 ] in
  let a = Allocation.allocate device program (Allocation.Random 5) in
  let b = Allocation.allocate device program (Allocation.Random 5) in
  let c = Allocation.allocate device program (Allocation.Random 6) in
  check "same seed same layout" true (Layout.equal a b);
  check "different seed differs" true (not (Layout.equal a c))

let test_allocation_too_wide () =
  let device = Calibration_model.ibm_q5 ~seed:1 in
  check "raises" true
    (try
       let _ =
         Allocation.allocate device (Circuit.create 9) Allocation.Locality
       in
       false
     with Invalid_argument _ -> true)

let test_vqa_readout_extension_prefers_good_readout () =
  (* two equally-strong link pairs; the measured qubits should land on
     the pair with the better readout under the extension *)
  let c = Calibration.create 4 in
  Calibration.set_link_error c 0 1 0.03;
  Calibration.set_link_error c 1 2 0.10;
  Calibration.set_link_error c 2 3 0.03;
  let good = { Calibration.t1_us = 80.; t2_us = 40.; error_1q = 0.001; error_readout = 0.01 } in
  let bad = { good with Calibration.error_readout = 0.20 } in
  Calibration.set_qubit c 0 bad;
  Calibration.set_qubit c 1 bad;
  Calibration.set_qubit c 2 good;
  Calibration.set_qubit c 3 good;
  let device = Device.make ~name:"line4" ~coupling:[ (0, 1); (1, 2); (2, 3) ] c in
  let program = Circuit.of_gates 2 [ cx 0 1; meas 0; meas 1 ] in
  let spots policy =
    let layout = Allocation.allocate device program policy in
    List.sort compare
      [ Layout.physical_of_program layout 0; Layout.physical_of_program layout 1 ]
  in
  Alcotest.(check (list int)) "readout-aware picks the good-readout pair"
    [ 2; 3 ]
    (spots Allocation.vqa_readout)

let test_vqa_prefers_strong_links () =
  (* 2-qubit program on a 4-line whose strongest link is 2-3; VQA must
     allocate onto it, locality is free to pick anything *)
  let c = Calibration.create 4 in
  Calibration.set_link_error c 0 1 0.10;
  Calibration.set_link_error c 1 2 0.08;
  Calibration.set_link_error c 2 3 0.02;
  let device = Device.make ~name:"line4" ~coupling:[ (0, 1); (1, 2); (2, 3) ] c in
  let program = Circuit.of_gates 2 [ cx 0 1; cx 0 1; meas 0; meas 1 ] in
  let layout = Allocation.allocate device program Allocation.vqa in
  let spots =
    List.sort compare
      [ Layout.physical_of_program layout 0; Layout.physical_of_program layout 1 ]
  in
  Alcotest.(check (list int)) "strongest link chosen" [ 2; 3 ] spots

(* ---- Compiler ------------------------------------------------------ *)

let test_compile_rejects_empty_policy () =
  let device = q20 () in
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check "no allocations" true
    (raises (fun () ->
         Compiler.compile device
           { Compiler.baseline with Compiler.allocations = [] }
           (Circuit.create 2)));
  check "no routings" true
    (raises (fun () ->
         Compiler.compile device
           { Compiler.baseline with Compiler.routings = [] }
           (Circuit.create 2)))

let test_log_gate_reliability_orders_circuits () =
  let d = line_device () in
  let good = Circuit.of_gates 4 [ cx 0 1 ] in
  let bad = Circuit.of_gates 4 [ cx 1 2 ] in
  check "stronger link scores higher" true
    (Compiler.log_gate_reliability d good > Compiler.log_gate_reliability d bad)

let test_compiled_preserves_measurement_cbits () =
  let device = q20 () in
  let program = Circuit.of_gates ~cbits:2 5 [ cx 0 4; meas 0; Gate.Measure { qubit = 4; cbit = 1 } ] in
  let compiled = Compiler.compile device Compiler.vqa_vqm program in
  let cbits =
    List.filter_map
      (function Gate.Measure { cbit; _ } -> Some cbit | _ -> None)
      (Circuit.gates compiled.Compiler.physical)
  in
  Alcotest.(check (list int)) "cbits preserved" [ 0; 1 ] (List.sort compare cbits);
  check_int "cbit register width" 2 (Circuit.num_cbits compiled.Compiler.physical)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* Every plan any test below compiles is replayed by the translation
   validator — a mapper regression that breaks plan faithfulness fails
   here even if no assertion looks at the relevant invariant. *)
let () = Vqc_check.Verify.install_compiler_check ()

let () =
  Alcotest.run "vqc_mapper"
    [
      ( "layout",
        [
          Alcotest.test_case "identity" `Quick test_layout_identity;
          Alcotest.test_case "validation" `Quick test_layout_of_assignment_validation;
          Alcotest.test_case "swap" `Quick test_layout_swap;
          Alcotest.test_case "keys" `Quick test_layout_key_distinguishes;
        ] );
      ( "cost",
        [
          Alcotest.test_case "hops" `Quick test_cost_hops;
          Alcotest.test_case "reliability" `Quick test_cost_reliability;
          Alcotest.test_case "swap bias" `Quick test_cost_swap_bias_monotone;
          Alcotest.test_case "route" `Quick test_cost_route;
        ]
        @ qcheck [ prop_cost_matrices_consistent; prop_layout_swap_involutive ]
      );
      ( "routing",
        [
          Alcotest.test_case "bv semantics" `Slow test_routing_preserves_semantics_bv;
          Alcotest.test_case "qft semantics" `Slow
            test_routing_preserves_semantics_qft;
          Alcotest.test_case "uniform device degenerates" `Slow
            test_uniform_device_vqm_matches_baseline_swaps;
          Alcotest.test_case "figure 1 example" `Quick test_figure1_example;
          Alcotest.test_case "mah zero" `Quick test_mah_zero_forbids_detours;
          Alcotest.test_case "sabre semantics" `Slow
            test_sabre_routes_and_preserves_semantics;
          Alcotest.test_case "sabre determinism" `Quick test_sabre_is_deterministic;
          Alcotest.test_case "sabre adjacency" `Quick
            test_sabre_executes_adjacent_program_without_swaps;
          Alcotest.test_case "greedy router" `Slow test_greedy_router_routes_everything;
        ]
        @ qcheck
            [ prop_routing_sound_random_programs; prop_routing_sound_small_devices ]
      );
      ( "policies",
        [
          Alcotest.test_case "estimate dominance" `Slow
            test_vqm_never_below_baseline_estimate;
          Alcotest.test_case "pst improves" `Slow
            test_vqm_improves_pst_on_representative_chip;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "valid layouts" `Quick
            test_allocation_policies_are_valid_layouts;
          Alcotest.test_case "random seeded" `Quick test_allocation_random_is_seeded;
          Alcotest.test_case "too wide" `Quick test_allocation_too_wide;
          Alcotest.test_case "vqa picks strong links" `Quick
            test_vqa_prefers_strong_links;
          Alcotest.test_case "readout-aware extension" `Quick
            test_vqa_readout_extension_prefers_good_readout;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "empty policy" `Quick test_compile_rejects_empty_policy;
          Alcotest.test_case "reliability estimate" `Quick
            test_log_gate_reliability_orders_circuits;
          Alcotest.test_case "measurement cbits" `Quick
            test_compiled_preserves_measurement_cbits;
        ] );
    ]
