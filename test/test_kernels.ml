(* Differential oracle for the flat Monte-Carlo chunk kernel.

   Mc_kernel promises bit-identity with the straightforward loop over
   Rng.bernoulli: same successes, same visited-event count, and the
   chunk generator left in the same state.  The oracle below is written
   from that specification (not shared with the library), so the two
   sides can only agree by both being right.  The engine-level tests
   then hold Monte_carlo.run's Flat and Reference engines to identical
   results over compiled circuits, worker counts, and chunk-boundary
   trial counts. *)

module Circuit = Vqc_circuit.Circuit
module Gate = Vqc_circuit.Gate
module Mc_kernel = Vqc_sim.Mc_kernel
module Monte_carlo = Vqc_sim.Monte_carlo
module Estimator = Vqc_sim.Estimator
module Compiler = Vqc_mapper.Compiler
module Catalog = Vqc_workloads.Catalog
module Context = Vqc_experiments.Context
module Policies = Vqc_service.Policies
module Rng = Vqc_rng.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The specification, transcribed: a trial visits events in order,
   counts each visit as a draw, and stops at its first failure.
   Rng.bernoulli consumes no generator draw for p <= 0 or p >= 1. *)
let oracle_chunk probabilities rng count =
  let events = Array.length probabilities in
  let successes = ref 0 in
  let draws = ref 0 in
  for _ = 1 to count do
    let rec error_free i =
      i >= events
      || (incr draws;
          (not (Rng.bernoulli rng probabilities.(i))) && error_free (i + 1))
    in
    if error_free 0 then incr successes
  done;
  (!successes, !draws)

let same_rng_state a b = Rng.dump a = Rng.dump b

(* ---- the kernel against the specification oracle ------------------- *)

let assert_kernel_matches ~name probabilities ~seed ~count =
  let kernel_rng = Rng.make seed in
  let oracle_rng = Rng.make seed in
  let table = Mc_kernel.of_probabilities probabilities in
  let kernel_result = Mc_kernel.run_chunk table kernel_rng count in
  let oracle_result = oracle_chunk probabilities oracle_rng count in
  Alcotest.(check (pair int int))
    (name ^ ": successes and draws") oracle_result kernel_result;
  check (name ^ ": generator state") true (same_rng_state kernel_rng oracle_rng)

let test_kernel_degenerate_tables () =
  (* p = 0 skips without failing, p = 1 fails without drawing; neither
     consumes a generator draw, so the RNG must come back untouched *)
  let rng = Rng.make 3 in
  let before = Rng.dump rng in
  let table = Mc_kernel.of_probabilities [| 0.0; 1.0 |] in
  check_int "events" 2 (Mc_kernel.events table);
  let successes, draws = Mc_kernel.run_chunk table rng 5 in
  check_int "certain failure" 0 successes;
  check_int "both events visited" 10 draws;
  check "no RNG consumption" true (Rng.dump rng = before);
  let empty = Mc_kernel.of_probabilities [||] in
  check_int "no events" 0 (Mc_kernel.events empty);
  Alcotest.(check (pair int int))
    "empty table: all trials succeed" (7, 0)
    (Mc_kernel.run_chunk empty rng 7);
  assert_kernel_matches ~name:"degenerate mix"
    [| 0.0; 1e-300; 0.5; 1.0; 0.25 |]
    ~seed:11 ~count:1000

let test_kernel_out_of_range_probabilities () =
  (* failure_probabilities never emits these, but the kernel contract
     clamps like Rng.bernoulli: <= 0 never fires, >= 1 always does *)
  assert_kernel_matches ~name:"clamped" [| -0.25; 0.5; 1.5 |] ~seed:5
    ~count:500;
  assert_kernel_matches ~name:"clamped edges" [| -0.0; 1.0 -. 1e-16 |] ~seed:6
    ~count:500

(* Edge tables: where the first always-firing event sits decides where
   the kernel's table ends, and [events] still counts every event. *)
let test_kernel_edge_tables () =
  List.iter
    (fun (name, probabilities, count) ->
      check_int (name ^ ": events")
        (Array.length probabilities)
        (Mc_kernel.events (Mc_kernel.of_probabilities probabilities));
      assert_kernel_matches ~name probabilities ~seed:13 ~count)
    [
      ("always fires first", [| 1.0; 0.3; 0.2 |], 100);
      ("always fires in the middle", [| 0.3; 0.0; 1.0; 0.2 |], 1000);
      ("always fires last", [| 0.1; 0.2; 1.0 |], 1000);
      ("all p <= 0", [| 0.0; -1.0; -0.0; 0.0 |], 1000);
      ("one drawing event among skips", [| 0.0; 0.4; 0.0 |], 1000);
      ("one drawing event alone", [| 0.4 |], 1000);
      ("count 0", [| 0.3; 0.5; 1.0 |], 0);
      ("count 0, no events", [||], 0);
      ("nan draws and never fires", [| 0.2; Float.nan; 0.3 |], 1000);
    ]

let gen_probability =
  QCheck2.Gen.(
    oneof
      [
        return 0.0;
        return 1.0;
        return (-0.5);
        return 1.5;
        float_range 0.0 1.0;
        map (fun f -> f *. 1e-6) (float_range 0.0 1.0);
        map (fun f -> 1.0 -. (f *. 1e-6)) (float_range 0.0 1.0);
      ])

let prop_kernel_matches_oracle =
  QCheck2.Test.make ~name:"flat kernel is bit-identical to the oracle"
    ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_bound 40) gen_probability)
        (int_bound 10_000) (int_bound 5_000))
    (fun (probabilities, seed, count) ->
      let probabilities = Array.of_list probabilities in
      let count = count + 1 in
      let kernel_rng = Rng.make seed in
      let oracle_rng = Rng.make seed in
      let table = Mc_kernel.of_probabilities probabilities in
      Mc_kernel.run_chunk table kernel_rng count
      = oracle_chunk probabilities oracle_rng count
      && same_rng_state kernel_rng oracle_rng)

(* ---- the engines against each other over compiled circuits --------- *)

let run_both ?(trials = 20_000) ?(jobs = 1) ~seed device circuit =
  let flat =
    Monte_carlo.run ~engine:Monte_carlo.Flat ~jobs ~trials (Rng.make seed)
      device circuit
  in
  let reference =
    Monte_carlo.run ~engine:Monte_carlo.Reference ~jobs ~trials
      (Rng.make seed) device circuit
  in
  (flat, reference)

let results_equal (a : Monte_carlo.result) (b : Monte_carlo.result) =
  a.Monte_carlo.trials = b.Monte_carlo.trials
  && a.Monte_carlo.successes = b.Monte_carlo.successes
  && a.Monte_carlo.pst = b.Monte_carlo.pst
  && a.Monte_carlo.ci95 = b.Monte_carlo.ci95

let test_engines_agree_on_q5_matrix () =
  (* every Section-7 workload under every service policy, serial and
     fanned out: the engines must agree to the bit *)
  let ctx = Context.default in
  let device = ctx.Context.q5 in
  List.iter
    (fun (entry : Catalog.entry) ->
      List.iter
        (fun { Policies.label; policy; _ } ->
          let compiled = Compiler.compile device policy entry.Catalog.circuit in
          List.iter
            (fun jobs ->
              let flat, reference =
                run_both ~jobs ~seed:1 device compiled.Compiler.physical
              in
              check
                (Printf.sprintf "%s/%s/jobs=%d" entry.Catalog.name label jobs)
                true
                (results_equal flat reference))
            [ 1; 4 ])
        Policies.all)
    Catalog.q5_suite

let gen_program =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let gate =
      let* kind = int_bound 3 in
      let* q = int_bound (n - 1) in
      match kind with
      | 0 | 1 ->
        let* other = int_bound (n - 2) in
        let t = if other >= q then other + 1 else other in
        return (Gate.Cnot { control = q; target = t })
      | 2 -> return (Gate.One_qubit (Gate.H, q))
      | _ -> return (Gate.Measure { qubit = q; cbit = q })
    in
    let* gates = list_size (int_bound 15) gate in
    return (Circuit.of_gates n gates))

let prop_engines_agree_on_random_circuits =
  QCheck2.Test.make ~name:"engines agree on random compiled circuits"
    ~count:25 gen_program (fun program ->
      let device = Context.default.Context.q5 in
      let compiled = Compiler.compile device Compiler.vqa_vqm program in
      let flat, reference =
        run_both ~trials:8192 ~seed:2 device compiled.Compiler.physical
      in
      results_equal flat reference)

let test_engines_agree_at_chunk_boundaries () =
  (* trial counts straddling the 4096-trial chunk size: partial last
     chunk, exact multiple, one over *)
  let ctx = Context.default in
  let device = ctx.Context.q20 in
  let circuit = (Catalog.find "bv-16").Catalog.circuit in
  let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
  List.iter
    (fun trials ->
      List.iter
        (fun jobs ->
          let flat, reference =
            run_both ~trials ~jobs ~seed:7 device compiled.Compiler.physical
          in
          check
            (Printf.sprintf "%d trials, jobs=%d" trials jobs)
            true
            (results_equal flat reference))
        [ 1; 3 ])
    [ 1; 4095; 4096; 4097; 8192; 12_289 ]

let test_jobs_do_not_change_results () =
  let ctx = Context.default in
  let device = ctx.Context.q20 in
  let circuit = (Catalog.find "qft-12").Catalog.circuit in
  let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
  let run jobs =
    Monte_carlo.run ~jobs ~trials:20_480 (Rng.make 4) device
      compiled.Compiler.physical
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      check
        (Printf.sprintf "jobs=%d matches serial" jobs)
        true
        (results_equal serial (run jobs)))
    [ 2; 4; 8 ]

(* ---- the shared chunk arithmetic ------------------------------------ *)

let test_chunks_for () =
  check_int "one trial" 1 (Estimator.chunks_for 1);
  check_int "exactly one chunk" 1 (Estimator.chunks_for Estimator.chunk_trials);
  check_int "one over" 2 (Estimator.chunks_for (Estimator.chunk_trials + 1));
  check_int "two chunks" 2 (Estimator.chunks_for (2 * Estimator.chunk_trials));
  let raises trials =
    try
      ignore (Estimator.chunks_for trials);
      false
    with Invalid_argument _ -> true
  in
  check "zero trials" true (raises 0);
  check "negative trials" true (raises (-5))

let test_effective_jobs () =
  check_int "single trial clamps to one" 1
    (Estimator.effective_jobs ~jobs:8 1);
  check_int "one full chunk clamps to one" 1
    (Estimator.effective_jobs ~jobs:8 Estimator.chunk_trials);
  check_int "two chunks allow two" 2
    (Estimator.effective_jobs ~jobs:8 (Estimator.chunk_trials + 1));
  check_int "jobs below chunk count pass through" 3
    (Estimator.effective_jobs ~jobs:3 (10 * Estimator.chunk_trials));
  let raises jobs trials =
    try
      ignore (Estimator.effective_jobs ~jobs trials);
      false
    with Invalid_argument _ -> true
  in
  check "zero jobs" true (raises 0 100);
  check "zero trials" true (raises 1 0)

let test_adaptive_full_budget_matches_fixed () =
  (* precision 0 disables early stopping, so the adaptive estimate over
     the budget equals the fixed run bit for bit — whatever the engine *)
  let ctx = Context.default in
  let device = ctx.Context.q5 in
  let circuit = (Catalog.find "GHZ-3").Catalog.circuit in
  let compiled = Compiler.compile device Compiler.vqa_vqm circuit in
  let config =
    {
      Estimator.default_config with
      Estimator.precision = 0.0;
      max_trials = 3 * Estimator.chunk_trials;
      batch_trials = Estimator.chunk_trials;
    }
  in
  List.iter
    (fun engine ->
      let fixed =
        Monte_carlo.run ~engine ~trials:config.Estimator.max_trials
          (Rng.make 9) device compiled.Compiler.physical
      in
      let adaptive =
        Monte_carlo.run_adaptive ~engine ~config (Rng.make 9) device
          compiled.Compiler.physical
      in
      check_int "same trials" fixed.Monte_carlo.trials
        adaptive.Estimator.trials;
      check_int "same successes" fixed.Monte_carlo.successes
        adaptive.Estimator.successes)
    [ Monte_carlo.Flat; Monte_carlo.Reference ]

(* ---- cold compile allocation ----------------------------------------

   Every compile under a fresh calibration is cold: new cost tables, an
   empty layer memo.  servebench's [miss] workload is that regime (W =
   17 circuits x 7 policies, recompiled per epoch), and its throughput
   is bound by the minor collections a compile causes.  Before the
   region search and the A* states were made allocation-lean, W's 119
   cold compiles on the seed-2 day-0 Q20 allocated 38.0M minor words;
   the bound is half of that. *)

let w_circuits =
  [
    "alu"; "bv-16"; "bv-20"; "qft-12"; "qft-14"; "bv-3"; "bv-4"; "TriSwap";
    "GHZ-3"; "alu-10"; "bv-10"; "qft-10"; "dj-8"; "grover-2"; "grover-3";
    "w-6"; "qaoa-12";
  ]

let test_cold_compiles_allocate_half () =
  let coupling = Vqc_device.Topologies.ibm_q20_tokyo in
  let day0 =
    Vqc_device.History.day (Vqc_device.History.generate ~seed:2 ~coupling 20) 0
  in
  let device = Vqc_device.Device.make ~name:"Q20" ~coupling day0 in
  let programs =
    List.map (fun name -> (Catalog.find name).Catalog.circuit) w_circuits
  in
  Vqc_mapper.Router.memo_clear ();
  let words0 = Gc.minor_words () in
  List.iter
    (fun program ->
      List.iter
        (fun { Policies.policy; _ } ->
          ignore (Compiler.compile device policy program))
        Policies.all)
    programs;
  let words = Gc.minor_words () -. words0 in
  check
    (Printf.sprintf "%.1fM minor words for 119 cold compiles <= 19.0M"
       (words /. 1e6))
    true (words <= 19.0e6)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vqc_kernels"
    [
      ( "kernel vs oracle",
        [
          Alcotest.test_case "degenerate tables" `Quick
            test_kernel_degenerate_tables;
          Alcotest.test_case "out-of-range probabilities" `Quick
            test_kernel_out_of_range_probabilities;
          Alcotest.test_case "edge tables" `Quick test_kernel_edge_tables;
        ]
        @ qcheck [ prop_kernel_matches_oracle ] );
      ( "engines",
        [
          Alcotest.test_case "q5 suite x policies x jobs" `Slow
            test_engines_agree_on_q5_matrix;
          Alcotest.test_case "chunk boundaries" `Slow
            test_engines_agree_at_chunk_boundaries;
          Alcotest.test_case "jobs invariance" `Slow
            test_jobs_do_not_change_results;
          Alcotest.test_case "adaptive full budget" `Quick
            test_adaptive_full_budget_matches_fixed;
        ]
        @ qcheck [ prop_engines_agree_on_random_circuits ] );
      ( "cold compile",
        [
          Alcotest.test_case "W allocates at most half the list searches' words"
            `Quick test_cold_compiles_allocate_half;
        ] );
      ( "chunk arithmetic",
        [
          Alcotest.test_case "chunks_for" `Quick test_chunks_for;
          Alcotest.test_case "effective_jobs" `Quick test_effective_jobs;
        ] );
    ]
