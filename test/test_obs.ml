(* Tests for the observability layer: metric registry semantics (the
   qcheck properties from the issue — commuting counters, monotone
   quantiles, exception-safe spans), trace sink behaviour and JSONL
   validity, and the load-bearing rule that attaching observability
   never changes simulation results. *)

module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace
module Span = Vqc_obs.Span
module Json = Vqc_obs.Json
module Json_io = Vqc_service.Json_io
module Monte_carlo = Vqc_sim.Monte_carlo
module Compiler = Vqc_mapper.Compiler
module Catalog = Vqc_workloads.Catalog
module Context = Vqc_experiments.Context
module Rng = Vqc_rng.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* fresh metric names: registry entries are process-global *)
let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "test.%s.%d" prefix !n

let buffer_sink buffer =
  {
    Trace.write = (fun line -> Buffer.add_string buffer line);
    flush = ignore;
  }

let parse_json line =
  match Json_io.parse line with
  | Ok json -> json
  | Error reason ->
    Alcotest.fail (Printf.sprintf "invalid JSON (%s): %s" reason line)

(* ---- counters and gauges -------------------------------------------- *)

let test_counter_basics () =
  let c = Metrics.counter (fresh "counter") in
  check_int "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  check_int "incr + add" 42 (Metrics.counter_value c);
  let again = Metrics.counter (Metrics.counter_name c) in
  check_int "same name, same metric" 42 (Metrics.counter_value again)

let test_counter_concurrent_increments () =
  let c = Metrics.counter (fresh "concurrent") in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  check_int "no lost updates" 40_000 (Metrics.counter_value c)

let test_gauge_basics () =
  let g = Metrics.gauge (fresh "gauge") in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set/get" 2.5 (Metrics.gauge_value g)

let test_reset_zeroes_in_place () =
  let c = Metrics.counter (fresh "reset") in
  let h = Metrics.histogram (fresh "reset_h") in
  Metrics.add c 7;
  Metrics.observe h 1.0;
  Metrics.reset ();
  check_int "counter zeroed" 0 (Metrics.counter_value c);
  check_int "histogram cleared" 0 (Metrics.histogram_count h);
  Metrics.incr c;
  check_int "handle still live after reset" 1 (Metrics.counter_value c)

(* qcheck: the counter total is independent of increment order *)
let prop_counter_increments_commute =
  QCheck.Test.make ~count:100 ~name:"counter increments commute"
    QCheck.(small_list small_nat)
    (fun increments ->
      let forward = Metrics.counter (fresh "commute_fwd") in
      let backward = Metrics.counter (fresh "commute_bwd") in
      List.iter (Metrics.add forward) increments;
      List.iter (Metrics.add backward) (List.rev increments);
      Metrics.counter_value forward = Metrics.counter_value backward
      && Metrics.counter_value forward = List.fold_left ( + ) 0 increments)

(* ---- histograms ----------------------------------------------------- *)

let test_histogram_quantiles_exact () =
  let h = Metrics.histogram (fresh "hist") in
  List.iter (Metrics.observe h) [ 4.0; 1.0; 3.0; 2.0; 5.0 ];
  check_int "count" 5 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Metrics.histogram_sum h);
  Alcotest.(check (float 0.0)) "p0 = min" 1.0 (Metrics.quantile h 0.0);
  Alcotest.(check (float 0.0)) "p50 = median" 3.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p100 = max" 5.0 (Metrics.quantile h 1.0)

let test_histogram_rejects_bad_queries () =
  let h = Metrics.histogram (fresh "hist_bad") in
  check "empty quantile raises" true
    (try
       ignore (Metrics.quantile h 0.5);
       false
     with Invalid_argument _ -> true);
  Metrics.observe h 1.0;
  check "rank out of range raises" true
    (try
       ignore (Metrics.quantile h 1.5);
       false
     with Invalid_argument _ -> true)

let prop_histogram_quantiles_monotone =
  QCheck.Test.make ~count:100 ~name:"histogram quantiles monotone in rank"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_range (-1e6) 1e6))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (samples, (r1, r2)) ->
      let low = Float.min r1 r2 and high = Float.max r1 r2 in
      let h = Metrics.histogram (fresh "monotone") in
      List.iter (Metrics.observe h) samples;
      Metrics.quantile h low <= Metrics.quantile h high)

(* The exact nearest-rank order statistic, for the bucketed histogram to
   be held against. *)
let exact_quantile samples rank =
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  sorted.(int_of_float (Float.round (rank *. float_of_int (n - 1))))

let positive_sample =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (m, e) -> Float.ldexp m e)
          (pair (float_range 0.5 1.0) (int_range (-60) 60));
        float_range 1e-7 10.0;
        oneofl [ 1.0; 2.0; 3.0; 1e-3 ];
      ])

let prop_histogram_quantiles_within_bound =
  QCheck.Test.make ~count:300
    ~name:"bucketed quantiles within 1/128 of the exact ones"
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 200) positive_sample))
        (float_range 0.0 1.0))
    (fun (samples, rank) ->
      let h = Metrics.histogram (fresh "bucketed") in
      List.iter (Metrics.observe h) samples;
      let exact = exact_quantile samples rank in
      let q = Metrics.quantile h rank in
      q <= exact
      && exact -. q <= exact /. 128.0
      && Metrics.quantile h 0.0 = exact_quantile samples 0.0
      && Metrics.quantile h 1.0 = exact_quantile samples 1.0)

(* Memory is bounded by the buckets in use, not by the sample count. *)
let test_histogram_memory_is_bounded () =
  let h = Metrics.histogram (fresh "bounded") in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  for i = 1 to 1_000_000 do
    Metrics.observe h (float_of_int i *. 1e-6)
  done;
  let grown = (Gc.quick_stat ()).Gc.heap_words - before in
  check_int "every sample counted" 1_000_000 (Metrics.histogram_count h);
  check
    (Printf.sprintf "heap grew by %d words < 64K" grown)
    true (grown < 65_536)

(* ---- spans ---------------------------------------------------------- *)

let test_with_span_nests_and_times () =
  let name = fresh "span" in
  let inner = fresh "span" in
  let observed_path = ref [] in
  let result =
    Span.with_span ~source:"test" name (fun () ->
        Span.with_span ~source:"test" inner (fun () ->
            observed_path := Span.stack ();
            17))
  in
  check_int "returns the body's value" 17 result;
  check "stack was innermost-first" true (!observed_path = [ inner; name ]);
  check "stack restored" true (Span.stack () = []);
  check_int "durations recorded" 1
    (Metrics.histogram_count (Metrics.histogram ("span." ^ inner)))

exception Boom

let prop_with_span_restores_stack_on_exception =
  QCheck.Test.make ~count:60 ~name:"with_span restores stack on exception"
    QCheck.(int_range 1 8)
    (fun depth ->
      let before = Span.stack () in
      let rec nest d =
        Span.with_span ~source:"test" (Printf.sprintf "level%d" d) (fun () ->
            if d = 0 then raise Boom else nest (d - 1))
      in
      (try nest depth with Boom -> ());
      Span.stack () = before)

let test_span_events_reach_the_sink () =
  let captured = Buffer.create 256 in
  Trace.with_sink (buffer_sink captured) (fun () ->
      Span.with_span ~source:"test" "outer" (fun () ->
          Span.with_span ~source:"test" "inner" ignore));
  let lines =
    Buffer.contents captured |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "one event per span" 2 (List.length lines);
  (* innermost closes first *)
  let first = parse_json (List.hd lines) in
  check "name" true
    (Json_io.member "name" first = Some (Json.String "inner"));
  check "path" true
    (Json_io.member "path" first = Some (Json.String "outer/inner"));
  check "ok" true (Json_io.member "ok" first = Some (Json.Bool true));
  check "duration under nd" true
    (match Json_io.member "nd" first with
    | Some nd -> (
      match Option.bind (Json_io.member "seconds" nd) Json_io.float_value with
      | Some s -> s >= 0.0
      | None -> false)
    | None -> false)

(* ---- trace sink ----------------------------------------------------- *)

let test_noop_mode_is_silent () =
  check "disabled by default" true (not (Trace.enabled ()));
  (* must be a no-op, not an error *)
  Trace.emit ~source:"test" ~event:"ignored" [];
  Trace.flush ()

let test_emitted_lines_are_valid_json () =
  let captured = Buffer.create 256 in
  Trace.with_sink (buffer_sink captured) (fun () ->
      check "enabled inside with_sink" true (Trace.enabled ());
      Trace.emit ~source:"test" ~event:"weird"
        ~nd:[ ("t", Json.Float 0.25) ]
        [
          ("text", Json.String "quote\" backslash\\ newline\n tab\t");
          ("count", Json.Int (-3));
          ("huge", Json.Float 1e300);
          ("inf", Json.Float infinity);
          ("nan", Json.Float nan);
          ("flag", Json.Bool false);
          ("nothing", Json.Null);
          ("items", Json.List [ Json.Int 1; Json.String "two" ]);
        ]);
  check "sink restored" true (not (Trace.enabled ()));
  let line = String.trim (Buffer.contents captured) in
  let json = parse_json line in
  check "source" true
    (Json_io.member "source" json = Some (Json.String "test"));
  check "string round-trips" true
    (Json_io.member "text" json
    = Some (Json.String "quote\" backslash\\ newline\n tab\t"));
  check "non-finite floats become null" true
    (Json_io.member "inf" json = Some Json.Null
    && Json_io.member "nan" json = Some Json.Null)

let test_snapshot_to_trace () =
  let counter_name = fresh "snapshot" in
  let histogram_name = fresh "snapshot_h" in
  Metrics.add (Metrics.counter counter_name) 5;
  Metrics.observe (Metrics.histogram histogram_name) 0.5;
  let captured = Buffer.create 256 in
  Trace.with_sink (buffer_sink captured) Metrics.snapshot_to_trace;
  let events =
    Buffer.contents captured |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map parse_json
  in
  let has_metric event name =
    List.exists
      (fun json ->
        Json_io.member "event" json = Some (Json.String event)
        && Json_io.member "name" json = Some (Json.String name))
      events
  in
  check "counter snapshot present" true (has_metric "counter" counter_name);
  check "histogram snapshot present" true
    (has_metric "histogram" histogram_name)

(* ---- determinism: observability never moves a result ---------------- *)

let mc_fixture =
  lazy
    (let ctx = Context.default in
     let circuit = (Catalog.find "GHZ-3").Catalog.circuit in
     let compiled = Compiler.compile ctx.Context.q5 Compiler.baseline circuit in
     (ctx.Context.q5, compiled.Compiler.physical))

let prop_monte_carlo_unchanged_under_tracing =
  QCheck.Test.make ~count:20
    ~name:"Monte_carlo.run unchanged with a trace sink attached"
    QCheck.(pair (int_range 1 5000) (int_range 0 1000))
    (fun (trials, seed) ->
      let device, physical = Lazy.force mc_fixture in
      let run () =
        (Monte_carlo.run ~trials (Rng.make seed) device physical)
          .Monte_carlo.successes
      in
      let plain = run () in
      let traced =
        Trace.with_sink (buffer_sink (Buffer.create 4096)) run
      in
      plain = traced)

let () =
  Alcotest.run "vqc_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "concurrent increments" `Quick
            test_counter_concurrent_increments;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "reset zeroes in place" `Quick
            test_reset_zeroes_in_place;
          QCheck_alcotest.to_alcotest prop_counter_increments_commute;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "exact quantiles" `Quick
            test_histogram_quantiles_exact;
          Alcotest.test_case "bad queries" `Quick
            test_histogram_rejects_bad_queries;
          QCheck_alcotest.to_alcotest prop_histogram_quantiles_monotone;
          QCheck_alcotest.to_alcotest prop_histogram_quantiles_within_bound;
          Alcotest.test_case "memory bounded over 10^6 samples" `Quick
            test_histogram_memory_is_bounded;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and timing" `Quick
            test_with_span_nests_and_times;
          Alcotest.test_case "events reach the sink" `Quick
            test_span_events_reach_the_sink;
          QCheck_alcotest.to_alcotest prop_with_span_restores_stack_on_exception;
        ] );
      ( "trace",
        [
          Alcotest.test_case "noop mode" `Quick test_noop_mode_is_silent;
          Alcotest.test_case "lines are valid JSON" `Quick
            test_emitted_lines_are_valid_json;
          Alcotest.test_case "registry snapshot" `Quick test_snapshot_to_trace;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_monte_carlo_unchanged_under_tracing ]
      );
    ]
