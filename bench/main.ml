(* Benchmark harness: one subcommand per mode.

     bench estimator [--precision P] [--max-trials N] [--jobs N] [--out FILE]
   compares adaptive trials-to-target against the paper's fixed-trial
   discipline on the Table-1 workloads.  It exits 1 if adaptive mode
   ever needs more trials than fixed mode: the estimator's cost ceiling
   is part of its contract.

     bench kernels [--trials N] [--out FILE] [--check BASELINE]
   times the optimized paths against the retained reference paths in
   the same process (memoized routing vs memo-free over the Table-1 x
   policy matrix, the flat Monte-Carlo kernel vs the list-based
   oracle).  With --check it exits 1 when a measured speedup falls
   below 90% of its committed floor: ratios, not absolutes, so the gate
   holds across machines of different speeds.  A baseline it cannot
   read, or one missing a floor, exits 2 before any timing.

     bench drift [--days N] [--threshold LOSS] [--jobs N] [--out FILE]
   replays the calibration history through the Vqc_drift retention
   pipeline over the full catalog x policy matrix: per-day retained
   fraction, the PST given up by retaining instead of recompiling, and
   the recompile wall time saved (under "nd"; everything else is
   byte-identical for a fixed history, threshold and jobs).

   Each mode prints a table and writes one JSON object to --out.  The
   paper's tables and figures regenerate through `vqc-experiments all`
   (or `vqc-experiments <id>`); serving throughput is measured by
   servebench/. *)

module Context = Vqc_experiments.Context
module Compiler = Vqc_mapper.Compiler
module Router = Vqc_mapper.Router
module Layout = Vqc_mapper.Layout
module Monte_carlo = Vqc_sim.Monte_carlo
module Reliability = Vqc_sim.Reliability
module Estimator = Vqc_sim.Estimator
module Catalog = Vqc_workloads.Catalog
module Rng = Vqc_rng.Rng
module History = Vqc_device.History
module Device = Vqc_device.Device
module Policies = Vqc_service.Policies
module Json_io = Vqc_service.Json_io
module Json = Vqc_obs.Json
module Staleness = Vqc_drift.Staleness
module Retention = Vqc_drift.Retention
module Recompiler = Vqc_drift.Recompiler

(* ---- shared plumbing ------------------------------------------------ *)

let wall_clock f =
  let started = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. started)

let median values =
  match List.sort compare values with
  | [] -> Float.nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let write_json out json =
  Out_channel.with_open_text out (fun channel ->
      Out_channel.output_string channel (Json.to_string json);
      Out_channel.output_char channel '\n');
  Printf.printf "wrote %s\n%!" out

(* ---- estimator: fixed vs adaptive trials-to-target ------------------ *)

type estimator_row = {
  workload : string;
  fixed_pst : float;
  fixed_seconds : float;
  adaptive : Estimator.estimate;
  adaptive_seconds : float;
}

let estimator_row ctx ~config ~jobs (entry : Catalog.entry) =
  let device = ctx.Context.q20 in
  let compiled =
    Compiler.compile device Compiler.vqa_vqm entry.Catalog.circuit
  in
  let physical = compiled.Compiler.physical in
  (* same seed on both sides: the adaptive run walks a prefix of the
     fixed run's chunk stream, so the comparison is trial-for-trial *)
  let fixed, fixed_seconds =
    wall_clock (fun () ->
        Monte_carlo.run ~jobs ~trials:config.Estimator.max_trials
          (Rng.make 1) device physical)
  in
  let adaptive, adaptive_seconds =
    wall_clock (fun () ->
        Monte_carlo.run_adaptive ~jobs ~config (Rng.make 1) device physical)
  in
  {
    workload = entry.Catalog.name;
    fixed_pst = fixed.Monte_carlo.pst;
    fixed_seconds;
    adaptive;
    adaptive_seconds;
  }

let trials_speedup row =
  float_of_int row.adaptive.Estimator.budget
  /. float_of_int row.adaptive.Estimator.trials

let estimator_json ~config rows =
  let row_json row =
    let e = row.adaptive in
    Json.Obj
      [
        ("workload", Json.String row.workload);
        ("fixed_trials", Json.Int e.Estimator.budget);
        ("fixed_pst", Json.Float row.fixed_pst);
        ("fixed_seconds", Json.Float row.fixed_seconds);
        ("adaptive_trials", Json.Int e.Estimator.trials);
        ("adaptive_pst", Json.Float e.Estimator.mean);
        ("adaptive_seconds", Json.Float row.adaptive_seconds);
        ("half_width", Json.Float (Estimator.half_width e));
        ( "stop",
          Json.String (Estimator.stop_reason_to_string e.Estimator.stop) );
        ("trials_saved", Json.Int (Estimator.trials_saved e));
        ("trials_speedup", Json.Float (trials_speedup row));
        ( "seconds_speedup",
          Json.Float (row.fixed_seconds /. row.adaptive_seconds) );
      ]
  in
  Json.Obj
    [
      ("bench", Json.String "estimator");
      ("precision", Json.Float config.Estimator.precision);
      ("confidence", Json.Float config.Estimator.confidence);
      ("max_trials", Json.Int config.Estimator.max_trials);
      ("workloads", Json.List (List.map row_json rows));
      ( "median_trials_speedup",
        Json.Float (median (List.map trials_speedup rows)) );
      ( "min_trials_speedup",
        Json.Float
          (List.fold_left Float.min infinity (List.map trials_speedup rows))
      );
    ]

let estimator precision max_trials jobs out =
  match
    Estimator.validate_config
      { Estimator.default_config with Estimator.precision; max_trials }
  with
  | Error message ->
    prerr_endline ("bench estimator: " ^ message);
    2
  | Ok config ->
    let ctx = Context.default in
    Printf.printf
      "Estimator bench: fixed %d trials vs adaptive (precision %g at %g%%), \
       VQA+VQM on Q20\n\n"
      config.Estimator.max_trials config.Estimator.precision
      (100.0 *. config.Estimator.confidence);
    let rows = List.map (estimator_row ctx ~config ~jobs) Catalog.table1 in
    List.iter
      (fun row ->
        let e = row.adaptive in
        Printf.printf
          "%-8s fixed %.4f (%d trials, %.2fs)  adaptive %.4f +/- %.1e (%d \
           trials, %.2fs)  %5.1fx fewer trials [%s]\n"
          row.workload row.fixed_pst e.Estimator.budget row.fixed_seconds
          e.Estimator.mean (Estimator.half_width e) e.Estimator.trials
          row.adaptive_seconds (trials_speedup row)
          (Estimator.stop_reason_to_string e.Estimator.stop))
      rows;
    Printf.printf "\nmedian trials-to-target reduction: %.1fx\n"
      (median (List.map trials_speedup rows));
    write_json out (estimator_json ~config rows);
    (* contract: adaptivity never costs trials — it stops at or before
       the budget the fixed path always spends *)
    let regressions =
      List.filter
        (fun row ->
          row.adaptive.Estimator.trials > row.adaptive.Estimator.budget)
        rows
    in
    List.iter
      (fun row ->
        Printf.eprintf
          "bench estimator: REGRESSION %s: adaptive used %d trials > fixed %d\n"
          row.workload row.adaptive.Estimator.trials
          row.adaptive.Estimator.budget)
      regressions;
    if regressions = [] then 0 else 1

(* ---- kernels: optimized vs reference paths -------------------------- *)

(* One full pass over the Table-1 catalog under every service policy.
   [memo] selects the optimized pipeline (layer memo + pruned SABRE +
   cached cost models) or the retained reference pipeline; both emit
   byte-identical plans (test/test_mapper_equiv.ml holds them to it). *)
let compile_matrix ~memo device policies =
  List.iter
    (fun (entry : Catalog.entry) ->
      List.iter
        (fun policy ->
          ignore (Compiler.compile ~memo device policy entry.Catalog.circuit))
        policies)
    Catalog.table1

(* Repeat a deterministic run until at least [min_seconds] of wall time
   has accumulated, so fast configurations are not timed off a single
   sub-millisecond sample.  The caller warms the run up first. *)
let window_rate ~units ~min_seconds run =
  let started = Unix.gettimeofday () in
  let repetitions = ref 0 in
  let elapsed = ref 0.0 in
  while !repetitions < 1 || !elapsed < min_seconds do
    run ();
    incr repetitions;
    elapsed := Unix.gettimeofday () -. started
  done;
  float_of_int (units * !repetitions) /. !elapsed

(* The speedups [bench kernels --check] gates, and their floors in a
   committed baseline file, read before any timing starts. *)
let gated =
  [ "compile_cold_speedup"; "compile_warm_speedup"; "mc_flat_speedup" ]

let read_floors file =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_text file In_channel.input_all)
    with Sys_error message -> Error message
  in
  let* baseline = Json_io.parse text in
  List.fold_right
    (fun key rest ->
      let* rest = rest in
      match Option.bind (Json_io.member key baseline) Json_io.float_value with
      | Some floor -> Ok ((key, floor) :: rest)
      | None -> Error (Printf.sprintf "no %S number" key))
    gated (Ok [])

(* The >10% regression rule: a measured speedup may drift with machine
   load, but dropping below 90% of the committed floor means the
   optimized path lost real ground on the reference path running in the
   same process on the same hardware. *)
let gate ~file floors measured =
  let failures =
    List.map2 (fun (key, floor) value -> (key, floor, value)) floors measured
    |> List.filter (fun (_, floor, value) -> value < floor *. 0.9)
  in
  List.iter
    (fun (key, floor, value) ->
      Printf.eprintf
        "bench kernels: REGRESSION %s: measured %.2fx < 90%% of committed \
         floor %.2fx\n"
        key value floor)
    failures;
  if failures = [] then begin
    Printf.printf "baseline check against %s: ok\n" file;
    0
  end
  else 1

let measure_kernels ~trials ~out ~baseline =
  let device = Context.default.Context.q20 in
  let policies = List.map (fun e -> e.Policies.policy) Policies.all in
  let plans = List.length Catalog.table1 * List.length policies in
  let plans_f = float_of_int plans in
  Printf.printf "Kernel bench: %d plans (Table-1 x %d policies) on Q20\n\n%!"
    plans (List.length policies);
  (* compile: reference (memo-free) vs optimized, cold and warm memo *)
  Router.memo_clear ();
  let (), reference_seconds =
    wall_clock (fun () -> compile_matrix ~memo:false device policies)
  in
  Router.memo_clear ();
  let (), cold_seconds =
    wall_clock (fun () -> compile_matrix ~memo:true device policies)
  in
  let (), warm_seconds =
    wall_clock (fun () -> compile_matrix ~memo:true device policies)
  in
  let reference_rate = plans_f /. reference_seconds in
  let cold_rate = plans_f /. cold_seconds in
  let warm_rate = plans_f /. warm_seconds in
  let cold_speedup = reference_seconds /. cold_seconds in
  let warm_speedup = reference_seconds /. warm_seconds in
  Printf.printf "compile reference: %6.2f plans/s  (%.2fs)\n" reference_rate
    reference_seconds;
  Printf.printf "compile cold memo: %6.2f plans/s  (%.2fs)  %.2fx\n" cold_rate
    cold_seconds cold_speedup;
  Printf.printf "compile warm memo: %6.2f plans/s  (%.2fs)  %.2fx\n\n%!"
    warm_rate warm_seconds warm_speedup;
  (* simulate: flat register-resident kernel vs the list-based oracle *)
  let circuit = (Catalog.find "bv-16").Catalog.circuit in
  let physical =
    (Compiler.compile device Compiler.vqa_vqm circuit).Compiler.physical
  in
  let run ~engine ~jobs () =
    ignore (Monte_carlo.run ~engine ~jobs ~trials (Rng.make 1) device physical)
  in
  (* One 0.5 s window per engine reads a VM's speed drift as much as the
     kernels (the same tree read 6.8x to 9.0x), so the engines take
     turns over [mc_rounds] windows each, the one going first
     alternating, and the gate reads the median of the per-round
     ratios. *)
  let mc_rounds = 5 in
  let engines =
    [ ("flat", Monte_carlo.Flat); ("reference", Monte_carlo.Reference) ]
  in
  let rounds jobs =
    List.iter (fun (_, engine) -> run ~engine ~jobs ()) engines;
    List.init mc_rounds (fun round ->
        let order = if round mod 2 = 0 then engines else List.rev engines in
        let rates =
          List.map
            (fun (name, engine) ->
              ( name,
                window_rate ~units:trials ~min_seconds:0.5 (run ~engine ~jobs)
              ))
            order
        in
        (List.assoc "flat" rates, List.assoc "reference" rates))
  in
  let measured = List.map (fun jobs -> (jobs, rounds jobs)) [ 1; 4 ] in
  (* (engine, jobs, median trials/s) *)
  let mc_rows =
    List.concat_map
      (fun (jobs, windows) ->
        [
          ("flat", jobs, median (List.map fst windows));
          ("reference", jobs, median (List.map snd windows));
        ])
      measured
  in
  let ratios jobs =
    List.assoc jobs measured
    |> List.map (fun (flat, reference) -> flat /. reference)
    |> List.sort compare
  in
  let mc_speedup jobs = median (ratios jobs) in
  let spread jobs =
    let sorted = ratios jobs in
    (List.hd sorted, List.nth sorted (List.length sorted - 1))
  in
  List.iter
    (fun (engine, jobs, rate) ->
      Printf.printf "mc %-9s jobs=%d: %12.0f trials/s (median of %d windows)\n"
        engine jobs rate mc_rounds)
    mc_rows;
  List.iter
    (fun jobs ->
      let low, high = spread jobs in
      Printf.printf
        "mc flat speedup jobs=%d: %.2fx median of %d rounds (min %.2fx, max \
         %.2fx)\n"
        jobs (mc_speedup jobs) mc_rounds low high)
    [ 1; 4 ];
  print_newline ();
  write_json out
    (Json.Obj
       [
         ("bench", Json.String "kernels");
         ( "compile",
           Json.Obj
             [
               ("catalog", Json.String "table1");
               ("policies", Json.Int (List.length policies));
               ("plans", Json.Int plans);
               ("reference_plans_per_s", Json.Float reference_rate);
               ("cold_plans_per_s", Json.Float cold_rate);
               ("warm_plans_per_s", Json.Float warm_rate);
               ("compile_cold_speedup", Json.Float cold_speedup);
               ("compile_warm_speedup", Json.Float warm_speedup);
             ] );
         ( "monte_carlo",
           Json.Obj
             [
               ("workload", Json.String "bv-16");
               ("trials", Json.Int trials);
               ( "rows",
                 Json.List
                   (List.map
                      (fun (engine, jobs, rate) ->
                        Json.Obj
                          [
                            ("engine", Json.String engine);
                            ("jobs", Json.Int jobs);
                            ("trials_per_s", Json.Float rate);
                          ])
                      mc_rows) );
               ("rounds", Json.Int mc_rounds);
               ("mc_flat_speedup", Json.Float (mc_speedup 1));
               ("mc_flat_speedup_min", Json.Float (fst (spread 1)));
               ("mc_flat_speedup_max", Json.Float (snd (spread 1)));
               ("mc_flat_speedup_jobs4", Json.Float (mc_speedup 4));
             ] );
       ]);
  match baseline with
  | None -> 0
  | Some (file, floors) ->
    (* in [gated]'s order *)
    gate ~file floors [ cold_speedup; warm_speedup; mc_speedup 1 ]

let kernels trials out check =
  match check with
  | None -> measure_kernels ~trials ~out ~baseline:None
  | Some file -> (
    match read_floors file with
    | Ok floors -> measure_kernels ~trials ~out ~baseline:(Some (file, floors))
    | Error message ->
      Printf.eprintf "bench kernels: unusable baseline %s: %s\n" file message;
      2)

(* ---- drift: selective retention over the history -------------------- *)

(* One live plan in the simulated cache: the day it was compiled (its
   provenance device) plus the plan itself. *)
type drift_entry = {
  de_workload : string;
  de_policy : Policies.entry;
  de_compile_day : int;
  de_plan : Compiler.compiled;
}

type drift_day = {
  dd_day : int;
  dd_retained : int;
  dd_recompiled : int;
  dd_mean_loss : float;  (** mean PST given up by the retained plans *)
  dd_max_loss : float;
  dd_recompile_seconds : float;  (** nd: wall time actually spent *)
  dd_saved_seconds : float;  (** nd: wall time retention avoided *)
}

let drift_compile ~jobs ~day device entries =
  let tasks =
    List.map
      (fun (workload, (policy : Policies.entry)) ->
        {
          Recompiler.id = workload ^ "/" ^ policy.Policies.label;
          device;
          policy = policy.Policies.policy;
          source = (Catalog.find workload).Catalog.circuit;
        })
      entries
  in
  let outcomes = Recompiler.run ~jobs tasks in
  let seconds =
    List.fold_left (fun acc o -> acc +. o.Recompiler.seconds) 0.0 outcomes
  in
  ( List.map2
      (fun (workload, policy) outcome ->
        match outcome.Recompiler.plan with
        | Ok plan ->
          {
            de_workload = workload;
            de_policy = policy;
            de_compile_day = day;
            de_plan = plan;
          }
        | Error message ->
          failwith
            (Printf.sprintf "bench drift: %s/%s failed to compile: %s" workload
               policy.Policies.label message))
      entries outcomes,
    seconds )

(* Whether [entry], compiled on its own day, is kept on [after]:
   its staleness score passes the policy and its plan re-verifies. *)
let retains policy ~device_on ~after entry =
  (not (Retention.wholesale policy))
  &&
  let plan = entry.de_plan in
  let physical = plan.Compiler.physical in
  match
    Retention.decide policy
      (Staleness.score ~before:(device_on entry.de_compile_day) ~after physical)
  with
  | Retention.Recompile -> false
  | Retention.Retain ->
    not
      (Vqc_diag.Diagnostic.has_errors
         (Retention.reverify ~device:after
            ~source:(Catalog.find entry.de_workload).Catalog.circuit ~physical
            ~initial:(Layout.assignment plan.Compiler.initial)
            ~final:(Layout.assignment plan.Compiler.final)
            ~swaps:plan.Compiler.stats.Router.swaps_inserted))

let drift_row_json ~total row =
  Json.Obj
    [
      ("day", Json.Int row.dd_day);
      ("retained", Json.Int row.dd_retained);
      ("recompiled", Json.Int row.dd_recompiled);
      ( "retained_fraction",
        Json.Float (float_of_int row.dd_retained /. float_of_int total) );
      ("mean_pst_loss", Json.Float row.dd_mean_loss);
      ("max_pst_loss", Json.Float row.dd_max_loss);
      ( "nd",
        Json.Obj
          [
            ("recompile_seconds", Json.Float row.dd_recompile_seconds);
            ("saved_seconds", Json.Float row.dd_saved_seconds);
          ] );
    ]

let drift days threshold jobs out =
  let ctx = Context.default in
  let history_days = History.days ctx.Context.history in
  if days < 2 || days > history_days then begin
    Printf.eprintf
      "bench drift: --days must lie in 2..%d (the history), got %d\n"
      history_days days;
    2
  end
  else begin
    let policy = { Retention.threshold } in
    let device_on day =
      Device.with_calibration ctx.Context.q20
        (History.day ctx.Context.history day)
    in
    let matrix =
      List.concat_map
        (fun (entry : Catalog.entry) ->
          List.map (fun p -> (entry.Catalog.name, p)) Policies.all)
        Catalog.all
    in
    let total = List.length matrix in
    Printf.printf
      "Drift bench: %d plans (catalog x policies), %d days, threshold %g, jobs \
       %d\n\n%!"
      total days threshold jobs;
    let key e = (e.de_workload, e.de_policy) in
    let rec replay day cache rows =
      if day >= days then List.rev rows
      else begin
        let after = device_on day in
        let retained, demoted =
          List.partition (retains policy ~device_on ~after) cache
        in
        let fresh_demoted, recompile_seconds =
          drift_compile ~jobs ~day after (List.map key demoted)
        in
        (* price what retention kept: compile the retained plans fresh
           too (time we would have spent; PST we might have gained) *)
        let fresh_retained, saved_seconds =
          drift_compile ~jobs ~day after (List.map key retained)
        in
        let losses =
          List.map2
            (fun entry fresh ->
              1.
              -. Reliability.pst after entry.de_plan.Compiler.physical
                 /. Reliability.pst after fresh.de_plan.Compiler.physical)
            retained fresh_retained
        in
        let row =
          {
            dd_day = day;
            dd_retained = List.length retained;
            dd_recompiled = List.length demoted;
            dd_mean_loss =
              (match losses with
              | [] -> 0.
              | _ ->
                List.fold_left ( +. ) 0. losses
                /. float_of_int (List.length losses));
            dd_max_loss = List.fold_left Float.max 0. losses;
            dd_recompile_seconds = recompile_seconds;
            dd_saved_seconds = saved_seconds;
          }
        in
        replay (day + 1) (retained @ fresh_demoted) (row :: rows)
      end
    in
    let seeded, _ = drift_compile ~jobs ~day:0 (device_on 0) matrix in
    let rows = replay 1 seeded [] in
    List.iter
      (fun row ->
        Printf.printf
          "day %2d: retained %3d/%d (%.2f)  recompiled %3d  mean loss %.4f  max \
           loss %.4f  (%.2fs spent, %.2fs saved)\n\
           %!"
          row.dd_day row.dd_retained total
          (float_of_int row.dd_retained /. float_of_int total)
          row.dd_recompiled row.dd_mean_loss row.dd_max_loss
          row.dd_recompile_seconds row.dd_saved_seconds)
      rows;
    let sum f = List.fold_left (fun acc row -> acc +. f row) 0. rows in
    let mean f = sum f /. float_of_int (List.length rows) in
    let mean_fraction =
      mean (fun r -> float_of_int r.dd_retained /. float_of_int total)
    in
    let mean_loss = mean (fun r -> r.dd_mean_loss) in
    let total_saved = sum (fun r -> r.dd_saved_seconds) in
    let total_recompile = sum (fun r -> r.dd_recompile_seconds) in
    Printf.printf
      "\nmean retained fraction: %.3f  mean PST loss (retained): %.4f  \
       recompile time saved: %.2fs of %.2fs\n"
      mean_fraction mean_loss total_saved (total_saved +. total_recompile);
    write_json out
      (Json.Obj
         [
           ("bench", Json.String "drift");
           ("threshold", Json.Float threshold);
           ("days", Json.Int days);
           ("plans", Json.Int total);
           ("rows", Json.List (List.map (drift_row_json ~total) rows));
           ("mean_retained_fraction", Json.Float mean_fraction);
           ("mean_pst_loss", Json.Float mean_loss);
           ( "nd",
             Json.Obj
               [
                 ("total_recompile_seconds", Json.Float total_recompile);
                 ("total_saved_seconds", Json.Float total_saved);
               ] );
         ]);
    0
  end

(* ---- command line --------------------------------------------------- *)

open Cmdliner

let positive =
  Arg.conv'
    ( (fun text ->
        match int_of_string_opt text with
        | Some n when n >= 1 -> Ok n
        | _ ->
          Error (Printf.sprintf "expected a positive integer, got %S" text)),
      Format.pp_print_int )

let jobs_term =
  let doc = "Worker domains for the trials or compiles." in
  Arg.(value & opt positive 1 & info [ "jobs" ] ~docv:"N" ~doc)

let exits =
  Cmd.Exit.info 1 ~doc:"when a gate fails."
  :: Cmd.Exit.info 2 ~doc:"on an unusable configuration or baseline."
  :: Cmd.Exit.defaults

let out_term default =
  let doc = "Write the JSON record to $(docv)." in
  Arg.(value & opt string default & info [ "out" ] ~docv:"FILE" ~doc)

let estimator_cmd =
  let precision =
    let doc = "Target 95% confidence-interval half-width." in
    Arg.(value & opt float 1e-3 & info [ "precision" ] ~docv:"P" ~doc)
  in
  let max_trials =
    let doc = "Trial budget: the fixed path's count, the adaptive cap." in
    Arg.(value & opt int 1_000_000 & info [ "max-trials" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "estimator" ~exits
       ~doc:"adaptive vs fixed Monte-Carlo trials on the Table-1 workloads")
    Term.(
      const estimator $ precision $ max_trials $ jobs_term
      $ out_term "BENCH_estimator.json")

let kernels_cmd =
  let trials =
    let doc = "Monte-Carlo trials per timed run." in
    Arg.(value & opt positive 400_000 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let check =
    let doc =
      "Exit 1 when a speedup falls below 90% of its floor in $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "check" ] ~docv:"BASELINE" ~doc)
  in
  Cmd.v
    (Cmd.info "kernels" ~exits
       ~doc:"optimized compile and Monte-Carlo paths vs their references")
    Term.(const kernels $ trials $ out_term "BENCH_kernels.json" $ check)

let drift_cmd =
  let days =
    let doc = "History days to replay (at least 2)." in
    Arg.(value & opt int 52 & info [ "days" ] ~docv:"N" ~doc)
  in
  let threshold =
    let doc = "Retention threshold on the predicted PST loss." in
    Arg.(
      value
      & opt float Retention.default.Retention.threshold
      & info [ "threshold" ] ~docv:"LOSS" ~doc)
  in
  Cmd.v
    (Cmd.info "drift" ~exits
       ~doc:"selective plan retention over the calibration history")
    Term.(
      const drift $ days $ threshold $ jobs_term $ out_term "BENCH_drift.json")

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "bench" ~exits
             ~doc:"benchmark the estimator, kernels and drift")
          [ estimator_cmd; kernels_cmd; drift_cmd ]))
