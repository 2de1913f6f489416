(* The traced run: the workload's seeded stream replayed in-process, once
   without spans and once with them, then the public functions below
   Service.flush timed on the same inputs.  Counters and the program's
   own span histograms come from Vqc_obs.Metrics. *)

module Metrics = Vqc_obs.Metrics
module Catalog = Vqc_workloads.Catalog

type replay = {
  wall : float;  (** timed part, slowest connection *)
  walls : float array;  (** per connection *)
  spans : Inproc.spans array;  (** empty without tracing *)
  responses : (int * int * string) array array;
      (** per connection: line, drift lap, response bytes *)
  counters : (string * int) list;
  histograms : (string * (int * float * float * float)) list;
      (** count, sum of seconds, and nearest-rank p50/p99 in seconds *)
}

let counter r name = Option.value (List.assoc_opt name r.counters) ~default:0

let histogram r name =
  Option.value (List.assoc_opt name r.histograms) ~default:(0, 0.0, 0.0, 0.0)

(* Warm each session with [w.warmup], one line at a time (the measured
   run warms on both cores; either way every session ends up holding
   the same plans), then run [w.replay_lines] timed lines per
   connection, one domain per connection like vqc-serve's sessions.
   Counters and histograms cover the timed part only. *)
let replay ~traced (w : Wl.t) =
  let s = Inproc.open_sessions w in
  Array.iter
    (fun service ->
      Array.iter (fun i -> ignore (Inproc.step service ~seq:(-1) w.Wl.lines.(i).Wl.text)) w.Wl.warmup)
    s.Inproc.services;
  Metrics.reset ();
  let run_conn c () =
    let spans = if traced then Some (Inproc.new_spans c) else None in
    let next = w.Wl.stream c in
    let out = ref [] in
    let lap = ref (-1) in
    let start = Unix.gettimeofday () in
    let rec go seq =
      if seq < w.Wl.replay_lines then
        match next () with
        | None -> ()
        | Some i ->
          let line = w.Wl.lines.(i) in
          if Wl.control line then incr lap;
          let response = Inproc.step ?spans s.Inproc.services.(c) ~seq line.Wl.text in
          out := (i, !lap, response) :: !out;
          go (seq + 1)
    in
    go 0;
    (Unix.gettimeofday () -. start, spans, Array.of_list (List.rev !out))
  in
  let others = List.init (w.Wl.connections - 1) (fun c -> Domain.spawn (run_conn (c + 1))) in
  let first = run_conn 0 () in
  let results = Array.of_list (first :: List.map Domain.join others) in
  let counters = Metrics.fold_counters (fun acc name v -> (name, v) :: acc) [] in
  let histograms =
    Metrics.fold_histograms
      (fun acc name h ->
        let n = Metrics.histogram_count h in
        if n = 0 then acc
        else
          (name, (n, Metrics.histogram_sum h, Metrics.quantile h 0.5, Metrics.quantile h 0.99))
          :: acc)
      []
  in
  Inproc.close_sessions s;
  let walls = Array.map (fun (t, _, _) -> t) results in
  {
    wall = Array.fold_left Float.max 0.0 walls;
    walls;
    spans = Array.of_list (List.filter_map (fun (_, sp, _) -> sp) (Array.to_list results));
    responses = Array.map (fun (_, _, r) -> r) results;
    counters;
    histograms;
  }

(* ---- timings below flush, on the replay's inputs ----------------------- *)

let time f =
  let start = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. start)

type probe = {
  qasm_parse : float array;  (** seconds per inline text parsed *)
  fingerprint : float array;  (** seconds per request circuit *)
  score : float array;  (** seconds per drift lap *)
  reverify : float array;
  recompile : float array;
  mirror_mismatches : int;
      (** keys whose mirrored compile epoch disagrees with the replay's
          response; non-zero means the drift timings timed other work *)
}

(* At most this many requests per connection are re-timed. *)
let probe_requests = 2000

let probe ~dir (w : Wl.t) r =
  let qasm = Array.map (Wl.read_fixture ~dir) Wl.circuits in
  let parse = ref [] and fp = ref [] in
  Array.iter
    (fun responses ->
      Array.iteri
        (fun j (i, _, _) ->
          let line = w.Wl.lines.(i) in
          if j < probe_requests && not (Wl.control line) then begin
            let name = Wl.circuit_of line.Wl.key in
            let circuit =
              if line.Wl.inline then begin
                let parsed, t =
                  time (fun () -> Vqc_circuit.Qasm.of_string qasm.(line.Wl.key / Array.length Wl.policies))
                in
                parse := t :: !parse;
                Result.get_ok parsed
              end
              else (Catalog.find name).Catalog.circuit
            in
            fp := snd (time (fun () -> Vqc_service.Fingerprint.circuit circuit)) :: !fp
          end)
        responses)
    r.responses;
  let score = ref [] and reverify = ref [] and recompile = ref [] and mismatches = ref 0 in
  if w.Wl.drift then begin
    (* mirror the session cache: key -> (compile epoch, compiled plan) *)
    let epochs = Inproc.epochs w.Wl.days in
    let device e = Vqc_service.Epoch.device epochs e in
    let policy k =
      (Option.get (Vqc_service.Policies.find (Wl.policy_of k))).Vqc_service.Policies.policy
    in
    let source k = (Catalog.find (Wl.circuit_of k)).Catalog.circuit in
    let compile k e = Vqc_mapper.Compiler.compile (device e) (policy k) (source k) in
    let mirror = Array.init Wl.keys (fun k -> (0, compile k 0)) in
    let retention = { Vqc_drift.Retention.threshold = Wl.drift_threshold } in
    let pool = Vqc_engine.Pool.create ~jobs:w.Wl.jobs () in
    (* most recently used first, as after the warm-up *)
    let previous = ref [] in
    let current = ref (List.rev (Array.to_list w.Wl.warmup)) in
    let migrate target =
      (* the cache walks its entries most recently used first *)
      let order = !previous in
      let t_score = ref 0.0 and t_reverify = ref 0.0 in
      let demoted =
        List.filter
          (fun k ->
            let e, compiled = mirror.(k) in
            e <> target
            &&
            let s, t =
              time (fun () ->
                  Vqc_drift.Staleness.score ~before:(device e) ~after:(device target)
                    compiled.Vqc_mapper.Compiler.physical)
            in
            t_score := !t_score +. t;
            match Vqc_drift.Retention.decide retention s with
            | Vqc_drift.Retention.Recompile -> true
            | Vqc_drift.Retention.Retain ->
              let diagnostics, t =
                time (fun () ->
                    Vqc_drift.Retention.reverify ~device:(device target) ~source:(source k)
                      ~physical:compiled.Vqc_mapper.Compiler.physical
                      ~initial:(Vqc_mapper.Layout.assignment compiled.Vqc_mapper.Compiler.initial)
                      ~final:(Vqc_mapper.Layout.assignment compiled.Vqc_mapper.Compiler.final)
                      ~swaps:compiled.Vqc_mapper.Compiler.stats.Vqc_mapper.Router.swaps_inserted)
              in
              t_reverify := !t_reverify +. t;
              Vqc_diag.Diagnostic.has_errors diagnostics)
          order
      in
      let tasks =
        List.map
          (fun k ->
            {
              Vqc_drift.Recompiler.id = string_of_int k;
              device = device target;
              policy = policy k;
              source = source k;
            })
          demoted
      in
      let outcomes, t = time (fun () -> Vqc_drift.Recompiler.run ~pool tasks) in
      List.iter2
        (fun k o ->
          match o.Vqc_drift.Recompiler.plan with
          | Ok compiled -> mirror.(k) <- (target, compiled)
          | Error _ -> ())
        demoted outcomes;
      score := !t_score :: !score;
      reverify := !t_reverify :: !reverify;
      recompile := t :: !recompile
    in
    Array.iter
      (fun (i, _, response) ->
        let line = w.Wl.lines.(i) in
        if Wl.control line then begin
          previous := !current;
          current := [];
          migrate (Inproc.int_field "epoch" response)
        end
        else begin
          current := line.Wl.key :: !current;
          if fst mirror.(line.Wl.key) <> Inproc.int_field "epoch" response then incr mismatches
        end)
      r.responses.(0);
    Vqc_engine.Pool.shutdown pool
  end;
  let arr l = Array.of_list (List.rev l) in
  {
    qasm_parse = arr !parse;
    fingerprint = arr !fp;
    score = arr !score;
    reverify = arr !reverify;
    recompile = arr !recompile;
    mirror_mismatches = !mismatches;
  }

(* ---- per-layer metrics ----------------------------------------------- *)

(* Mean span duration by span kind over the timed requests, and for
   each request line the summed parse, submit, flush and render time of
   its requests with their count. *)
let span_stats (w : Wl.t) r =
  let sum = Array.make (Array.length Inproc.span_names) 0.0 in
  let count = Array.make (Array.length Inproc.span_names) 0 in
  let line_time = Array.make (Array.length w.Wl.lines) 0.0 in
  let line_count = Array.make (Array.length w.Wl.lines) 0 in
  Array.iteri
    (fun c (s : Inproc.spans) ->
      for i = 0 to s.Inproc.n - 1 do
        let name = s.Inproc.name.(i) in
        let d = s.Inproc.stop.(i) -. s.Inproc.start.(i) in
        let line, _, _ = r.responses.(c).(s.Inproc.seq.(i)) in
        sum.(name) <- sum.(name) +. d;
        count.(name) <- count.(name) + 1;
        if name = Inproc.request_span then line_count.(line) <- line_count.(line) + 1
        else line_time.(line) <- line_time.(line) +. d
      done)
    r.spans;
  let mean k = if count.(k) = 0 then 0.0 else sum.(k) /. float_of_int count.(k) in
  (mean, line_time, line_count)

(* Share of each connection's replay wall time its layer spans cover;
   the smallest over connections. *)
let coverage r =
  Array.fold_left Float.min 1.0
    (Array.mapi
       (fun c (s : Inproc.spans) ->
         let covered = ref 0.0 in
         for i = 0 to s.Inproc.n - 1 do
           if s.Inproc.name.(i) <> Inproc.request_span then
             covered := !covered +. (s.Inproc.stop.(i) -. s.Inproc.start.(i))
         done;
         !covered /. r.walls.(c))
       r.spans)

let migration_census r =
  Array.fold_left
    (fun (retained, invalidated, recompiled) (_, _, response) ->
      if String.starts_with ~prefix:"{\"status\":\"ok\",\"op\":" response then
        ( retained + Inproc.int_field "retained" response,
          invalidated + Inproc.int_field "invalidated" response,
          recompiled + Inproc.int_field "recompiled" response )
      else (retained, invalidated, recompiled))
    (0, 0, 0)
    (Array.concat (Array.to_list r.responses))
