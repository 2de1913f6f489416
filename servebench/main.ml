(* servebench: the serving benchmark of vqc-serve.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 \
       --serve-exe PATH [--dir DIR] [--out DIR]
     main.exe regen [--dir DIR]

   See README.md beside this file.  The last line of stdout is one JSON
   object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer
   ones. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** sample count or basis, for the human report *)
}

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric m = Printf.printf "  %-28s %14.6f %-6s %s\n" m.name m.value m.unit_ m.note

(* [metrics] are the BENCHMARK.json keys; [extra] are printed for people
   only. *)
let print_result ?(extra = []) ~correct ~attempted ~failed metrics =
  List.iter print_metric (metrics @ extra);
  Printf.printf "  operations: attempted %d, failed %d\n" attempted failed;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_number m.value) m.unit_)
          metrics))

(* ---- the response check ------------------------------------------------ *)

(* Digests of this seed's estimate lines: committed for the default
   seed, else replayed in-process for the lines that were sent. *)
let estimate_table ~seed tables (w : Wl.t) sent =
  if seed = Wl.default_seed then fun j -> Some tables.Expect.estimates.(j)
  else begin
    let needed =
      List.sort_uniq compare
        (List.filter (fun i -> w.Wl.lines.(i).Wl.estimate) sent)
    in
    let table = Hashtbl.create 512 in
    List.iter (fun (i, d) -> Hashtbl.replace table (i - Wl.keys) d) (Inproc.estimate_digests w needed);
    Hashtbl.find_opt table
  end

(* (line, lap, digest) triples -> failures *)
let check ~seed tables (w : Wl.t) responses =
  let estimates = estimate_table ~seed tables w (List.map (fun (i, _, _) -> i) responses) in
  List.fold_left
    (fun failed (line, lap, digest) ->
      match Expect.expected tables w ~estimates ~lap line with
      | Some expected when expected = digest -> failed
      | _ -> failed + 1)
    0 responses


(* ---- end-to-end ---------------------------------------------------------- *)

type measured = {
  run : Client.run;
  compiles : int;  (** timed compile requests *)
  metrics : metric list;
  epoch_move : metric option;  (** drift only: not a BENCHMARK.json key *)
  shares : string;
  speed : string;  (** the run's speed readings, for people *)
}

(* p99_ms needs ten samples beyond it *)
let p99_samples = 1000

let measure ~exe ~seconds (w : Wl.t) =
  let run = Client.run ~exe ~seconds w in
  let timed = Array.concat (Array.to_list run.Client.timed) in
  let is_control (s : Client.sample) = Wl.control w.Wl.lines.(s.Client.line) in
  let compiles = List.filter (fun s -> not (is_control s)) (Array.to_list timed) in
  (* On hit and estimate the timed phase is reported in reference
     seconds (speed.ml), each latency by the readings around its slice;
     on miss and drift in wall seconds.  A set-up with a warm-up is
     mostly compiles and is in wall seconds; miss's, the process start
     alone, is in reference seconds by the run's median reading.  See
     README.md, "Reference seconds", for why. *)
  let latency (s : Client.sample) =
    if w.Wl.reference then
      Speed.reference_seconds ~reading:(snd run.Client.slices.(s.Client.slice)) s.Client.latency
    else s.Client.latency
  in
  let sorted = Stats.sorted (Array.of_list (List.map latency compiles)) in
  let n = Array.length sorted in
  let acks =
    Array.of_list
      (List.filter_map (fun s -> if is_control s then Some (latency s) else None) (Array.to_list timed))
  in
  let wall = Array.fold_left (fun acc (t, _) -> acc +. t) 0.0 run.Client.slices in
  let reference =
    Array.fold_left
      (fun acc (t, reading) -> acc +. Speed.reference_seconds ~reading t)
      0.0 run.Client.slices
  in
  let seconds = if w.Wl.reference then reference else wall in
  let readings =
    Stats.sorted
      (Array.of_list
         (List.map snd run.Client.setups @ List.map snd (Array.to_list run.Client.slices)))
  in
  let setup = Stats.median (Array.of_list (List.map fst run.Client.setups)) in
  let wall_sorted =
    Stats.sorted (Array.of_list (List.map (fun (s : Client.sample) -> s.Client.latency) compiles))
  in
  let wall_ms q = 1e3 *. Stats.quantile wall_sorted q in
  let share p = Stats.ratio (List.length (List.filter p compiles)) (List.length compiles) in
  let line_of (s : Client.sample) = w.Wl.lines.(s.Client.line) in
  let shares =
    Printf.sprintf
      "cache hits %.4f, compiles %.4f, inline QASM %.4f, estimate riders %.4f (of %d compile requests); control ops %.4f (of %d responses)"
      (share (fun s -> s.Client.hit))
      (share (fun s -> not s.Client.hit))
      (share (fun s -> (line_of s).Wl.inline))
      (share (fun s -> (line_of s).Wl.estimate))
      (List.length compiles)
      (Stats.ratio (Array.length acks) (Array.length timed))
      (Array.length timed)
  in
  let samples = Printf.sprintf "(%d samples)" n in
  let metrics =
    [
      metric "setup_s" "s"
        (if Array.length w.Wl.warmup = 0 then
           Speed.reference_seconds ~reading:(Stats.median readings) setup
         else setup)
        ~note:
          (Printf.sprintf "(median of %d set-ups, %.4f s wall: %s)" w.Wl.setups setup
             (String.concat " " (List.map (fun (t, _) -> Printf.sprintf "%.3f" t) run.Client.setups)));
      metric "req_per_s" "1/s"
        (float_of_int (Array.length timed) /. seconds)
        ~note:
          (Printf.sprintf "(%d responses in %.3f wall s, %.3f reference s; %.0f/s wall)"
             (Array.length timed) wall reference
             (float_of_int (Array.length timed) /. wall));
      metric "p50_ms" "ms" (1e3 *. Stats.quantile sorted 0.5)
        ~note:(Printf.sprintf "%s; wall %.4f ms" samples (wall_ms 0.5));
      metric "p99_ms" "ms" (1e3 *. Stats.quantile sorted 0.99)
        ~note:
          (if n >= p99_samples then Printf.sprintf "%s; wall %.4f ms" samples (wall_ms 0.99)
           else Printf.sprintf "(%d samples: fewer than %d, not valid)" n p99_samples);
      metric "peak_rss_mb" "MB" (float_of_int run.Client.peak_rss_kb /. 1024.0)
        ~note:"(server VmHWM at the end of the timed phase)";
    ]
  in
  let epoch_move =
    if Array.length acks = 0 then None
    else
      Some
        (metric "epoch_move_ms" "ms" (1e3 *. Stats.median acks)
           ~note:(Printf.sprintf "(median of %d advance_epoch acks)" (Array.length acks)))
  in
  let speed =
    Printf.sprintf "%d readings, median %.2f ms (%.2f to %.2f; nominal %.2f ms)"
      (Array.length readings) (1e3 *. Stats.median readings) (1e3 *. readings.(0))
      (1e3 *. readings.(Array.length readings - 1))
      (1e3 *. Speed.nominal)
  in
  { run; compiles = n; metrics; epoch_move; shares; speed }

(* every response of the run, warm-ups included, as (line, lap, digest) *)
let checked_samples (m : measured) =
  Array.to_list m.run.Client.warmup @ List.concat_map Array.to_list (Array.to_list m.run.Client.timed)
  |> List.map (fun (s : Client.sample) -> (s.Client.line, s.Client.lap, s.Client.digest))

(* ---- per-layer ----------------------------------------------------------- *)

(* A traced run whose layer spans cover less of the replay's wall time
   than this does not describe the replay, and is not correct. *)
let min_coverage = 0.9

let layer_metrics ~dir (w : Wl.t) (m : measured) =
  let untraced = Layers.replay ~traced:false w in
  let traced = Layers.replay ~traced:true w in
  let probe = Layers.probe ~dir w traced in
  let mean_span, line_time, line_count = Layers.span_stats w traced in
  (* client latency minus in-process service time, compared line by
     line so the two sides' request mixes cannot differ *)
  let wire, matched =
    let sum = ref 0.0 and n = ref 0 in
    Array.iter
      (Array.iter (fun (x : Client.sample) ->
           let l = x.Client.line in
           if line_count.(l) > 0 && not (Wl.control w.Wl.lines.(l)) then begin
             sum := !sum +. x.Client.latency -. (line_time.(l) /. float_of_int line_count.(l));
             incr n
           end))
      m.run.Client.timed;
    ((if !n = 0 then 0.0 else !sum /. float_of_int !n), !n)
  in
  let us v = 1e6 *. v and ms v = 1e3 *. v in
  let c = Layers.counter traced in
  let l1_hits = c "service.cache.hits" and l1_misses = c "service.cache.misses" in
  let store_hits = c "serve.store.hits" and store_misses = c "serve.store.misses" in
  let compile_n, _, compile_p50, compile_p99 = Layers.histogram traced "span.mapper.compile" in
  let est_n, est_sum, _, _ = Layers.histogram traced "span.sim.estimator.run" in
  let _, chunk_seconds, _, _ = Layers.histogram traced "engine.pool.chunk_seconds" in
  let trials = c "sim.estimator.trials" in
  let retained, invalidated, recompiled = Layers.migration_census traced in
  let laps = Array.length probe.Layers.score in
  let histogram_samples =
    List.fold_left (fun acc (_, (n, _, _, _)) -> acc + n) 0 traced.Layers.histograms
  in
  let timed = Array.fold_left (fun acc r -> acc + Array.length r) 0 traced.Layers.responses in
  let coverage = Layers.coverage traced in
  let n_note n = Printf.sprintf "(%d samples)" n in
  let metrics =
    [
      metric "serve_net.wire_us" "us" (us wire)
        ~note:
          (Printf.sprintf
             "(client latency - replay parse+submit+flush+render of the same line, over %d of %d requests)"
             matched m.compiles);
      metric "service.parse_us" "us" (us (mean_span Inproc.parse_span)) ~note:(n_note timed);
      metric "circuit.qasm_parse_us" "us"
        (us (Stats.mean probe.Layers.qasm_parse))
        ~note:(n_note (Array.length probe.Layers.qasm_parse));
      metric "service.fingerprint_us" "us"
        (us (Stats.mean probe.Layers.fingerprint))
        ~note:(n_note (Array.length probe.Layers.fingerprint));
      metric "service.flush_us" "us" (us (mean_span Inproc.flush_span));
      metric "service.render_us" "us" (us (mean_span Inproc.render_span));
      metric "service.l1_hit_ratio" "ratio" (Stats.ratio l1_hits (l1_hits + l1_misses))
        ~note:(n_note (l1_hits + l1_misses));
      metric "service.store_hit_ratio" "ratio"
        (Stats.ratio store_hits (store_hits + store_misses))
        ~note:(n_note (store_hits + store_misses));
      metric "service.evictions" "count" (float_of_int (c "service.cache.evictions"));
      metric "service.store_evictions" "count" (float_of_int (c "serve.store.evictions"));
      metric "service.compiles" "count" (float_of_int (c "service.compiles"));
      metric "mapper.compile_p50_ms" "ms" (ms compile_p50) ~note:(n_note compile_n);
      metric "mapper.compile_p99_ms" "ms" (ms compile_p99) ~note:(n_note compile_n);
      metric "mapper.memo_hit_ratio" "ratio"
        (Stats.ratio (c "mapper.layer_memo_hits")
           (c "mapper.layer_memo_hits" + c "mapper.layer_memo_misses"));
      metric "mapper.astar_expansions" "count" (float_of_int (c "mapper.astar_expansions"));
      metric "sim.estimate_ms" "ms"
        (if est_n = 0 then 0.0 else ms est_sum /. float_of_int est_n)
        ~note:(n_note est_n);
      metric "sim.trials" "count" (float_of_int trials);
      metric "sim.trials_per_s" "1/s" (if est_sum > 0.0 then float_of_int trials /. est_sum else 0.0);
      metric "engine.pool_busy_frac" "ratio"
        (chunk_seconds /. (float_of_int w.Wl.jobs *. traced.Layers.wall));
      metric "drift.epoch_move_ms" "ms"
        (match m.epoch_move with Some x -> x.value | None -> 0.0)
        ~note:"(measured run, median advance_epoch ack)";
      metric "drift.score_ms" "ms" (ms (Stats.mean probe.Layers.score)) ~note:(n_note laps);
      metric "drift.reverify_ms" "ms" (ms (Stats.mean probe.Layers.reverify)) ~note:(n_note laps);
      metric "drift.recompile_ms" "ms" (ms (Stats.mean probe.Layers.recompile)) ~note:(n_note laps);
      metric "drift.retained_ratio" "ratio" (Stats.ratio retained (retained + invalidated));
      metric "drift.recompiles" "count" (float_of_int recompiled);
      metric "obs.histogram_samples" "count" (float_of_int histogram_samples);
      metric "bench.trace_overhead_pct" "%"
        (100.0 *. (traced.Layers.wall -. untraced.Layers.wall) /. untraced.Layers.wall)
        ~note:
          (Printf.sprintf "(replay %.3f s traced vs %.3f s untraced)" traced.Layers.wall
             untraced.Layers.wall);
      metric "bench.span_coverage" "ratio" coverage
        ~note:
          (Printf.sprintf "(parse/submit/flush/advance/render spans over replay wall time; %s %.2f)"
             (if coverage >= min_coverage then "ok, at least" else "the run fails, below")
             min_coverage);
    ]
  in
  let shares =
    Printf.sprintf
      "replay shares of %d timed lines: L1 hits %.4f, store hits %.4f, compiles %.4f"
      timed (Stats.ratio l1_hits timed) (Stats.ratio store_hits timed)
      (Stats.ratio (c "service.compiles") timed)
  in
  (untraced, traced, probe, metrics, shares, coverage >= min_coverage)

(* ---- main ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload hit|miss|estimate|drift --seed N --seconds S --trace 0|1 \
     --serve-exe PATH [--dir DIR] [--out DIR]\n\
    \       main.exe regen [--dir DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key -> opts ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let regen, args = match args with "regen" :: rest -> (true, rest) | _ -> (false, args) in
  let opts = opts [] args in
  let get ?default key =
    match (List.assoc_opt key opts, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> usage ()
  in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let dir = get "--dir" ~default:"servebench" in
  if regen then Inproc.regen ~dir
  else begin
    let name = get "--workload" in
    if not (List.mem name Wl.names) then usage ();
    let seed = int "--seed" and seconds = int "--seconds" and trace = int "--trace" in
    let exe = get "--serve-exe" and out = get "--out" ~default:"." in
    let w = Wl.make ~dir ~seed name in
    let tables = Expect.load ~dir in
    Printf.printf "servebench %s: seed %d, %d s, trace %d, %d connection(s), vqc-serve %s\n%!"
      name seed seconds trace w.Wl.connections
      (String.concat " " ("--tcp 0 --batch 1" :: Wl.server_flags w));
    let m = measure ~exe ~seconds:(float_of_int seconds) w in
    let measured = checked_samples m in
    Printf.printf "  shares: %s\n  speed: %s\n" m.shares m.speed;
    let extra = Option.to_list m.epoch_move in
    let finish ?extra ?(covered = true) responses metrics =
      let failed = check ~seed tables w responses in
      print_result ?extra ~correct:(failed = 0 && covered) ~attempted:(List.length responses) ~failed
        metrics
    in
    if trace = 0 then finish ~extra measured m.metrics
    else begin
      List.iter print_metric (m.metrics @ extra);
      let untraced, traced, probe, metrics, shares, covered = layer_metrics ~dir w m in
      let replayed (r : Layers.replay) =
        List.concat_map Array.to_list (Array.to_list r.Layers.responses)
        |> List.map (fun (i, lap, response) ->
               (i, lap, if Expect.ok response then Expect.digest response else ""))
      in
      Printf.printf "  %s\n" shares;
      if probe.Layers.mirror_mismatches > 0 then
        Printf.printf "  warning: %d drift keys left the probe's cache mirror\n"
          probe.Layers.mirror_mismatches;
      let file = Filename.concat out (Printf.sprintf "servebench-spans-%s.jsonl" name) in
      Out_channel.with_open_bin file (fun oc -> Array.iter (Inproc.write_spans oc) traced.Layers.spans);
      Printf.printf "  spans: %s\n" file;
      finish ~covered (measured @ replayed untraced @ replayed traced) metrics
    end
  end
