(* vqc-serve: compilation-as-a-service over newline-delimited JSON.

   Requests arrive one JSON object per line (workload name or inline
   QASM, policy label, optional pinned epoch); responses leave one JSON
   object per line, in input order.  Accepted requests batch onto the
   worker pool and flush every --batch requests, on control lines, and
   at EOF; a full admission queue yields structured "rejected"
   responses (code VQC130) instead of an exception.  The deterministic
   fields of compile responses are byte-identical for any --jobs, with
   the cache on or off — anything run-varying (latency, cache
   temperature) lives under "nd".  A control ack's census describes the
   session cache, so it depends on --cache-capacity and is all zeros
   under --no-cache.

   Two front ends share the same session loop (Vqc_serve_net.Session):
   the default reads stdin and writes stdout; --tcp PORT serves many
   concurrent clients, each an isolated session (private cache, queue
   and epoch cursor) over a shared worker pool and a shared
   content-addressed compile store.  A single TCP client receives
   byte-identical responses to the stdin loop for the same stream.
   SIGTERM or SIGINT stops the TCP server at once: it writes the
   --metrics dump (and the trace's final metric snapshot) and exits 0
   without waiting for its clients. *)

module Service = Vqc_service.Service
module Epoch = Vqc_service.Epoch
module Session = Vqc_serve_net.Session
module Server = Vqc_serve_net.Server
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Calibration_io = Vqc_device.Calibration_io
module Pool = Vqc_engine.Pool
module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace

open Cmdliner

let positive flag value =
  if value < 1 then
    Error (Printf.sprintf "--%s must be a positive integer (got %d)" flag value)
  else Ok value

let build_epochs ~seed ~days ~csv_files =
  match csv_files with
  | [] ->
    let history =
      History.generate ~days ~seed ~coupling:Topologies.ibm_q20_tokyo 20
    in
    Ok (Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo history)
  | files ->
    let devices =
      List.map
        (fun path ->
          match In_channel.with_open_text path In_channel.input_all with
          | text -> begin
            match
              Calibration_io.device_of_ibm_csv ~name:(Filename.basename path)
                text
            with
            | Ok device -> Ok device
            | Error message ->
              Error (Printf.sprintf "%s: %s" path message)
          end
          | exception Sys_error message -> Error message)
        files
    in
    (match
       List.find_opt (function Error _ -> true | Ok _ -> false) devices
     with
    | Some (Error message) -> Error message
    | _ ->
      Ok
        (Epoch.of_devices
           (List.map (function Ok d -> d | Error _ -> assert false) devices)))

let run jobs batch queue_depth cache_capacity no_cache verify drift_threshold
    seed days csv_files tcp clients_max max_line store_capacity metrics trace =
  let ( let* ) r f = Result.bind r f in
  let checked =
    let* jobs =
      Result.map_error (fun m -> "--" ^ m) (Pool.validate_jobs jobs)
    in
    let* batch = positive "batch" batch in
    let* queue_depth = positive "queue-depth" queue_depth in
    let* cache_capacity = positive "cache-capacity" cache_capacity in
    let* max_line = positive "max-line" max_line in
    let* (_ : int) = positive "store-capacity" store_capacity in
    let* (_ : int) = positive "clients-max" clients_max in
    let* _days = positive "days" days in
    Ok (jobs, batch, queue_depth, cache_capacity, max_line)
  in
  match checked with
  | Error message ->
    prerr_endline ("vqc-serve: " ^ message);
    1
  | Ok (jobs, batch, queue_depth, cache_capacity, max_line) -> (
    match build_epochs ~seed ~days ~csv_files with
    | Error message ->
      prerr_endline ("vqc-serve: " ^ message);
      1
    | Ok epochs ->
      let config =
        {
          Service.jobs;
          cache_capacity;
          cache_enabled = not no_cache;
          queue_limit = queue_depth;
          verify;
          drift =
            Option.map
              (fun threshold -> { Vqc_drift.Retention.threshold })
              drift_threshold;
        }
      in
      let session = { Session.batch; max_line } in
      let execute () =
        (match tcp with
        | None ->
          Service.with_service ~config epochs (fun service ->
              ignore (Session.run ~config:session service stdin stdout))
        | Some port ->
          (* Blocked before the first thread or domain starts, so all of
             them inherit the mask and a stop signal reaches only
             [Thread.wait_signal] below.  A handler would run only once
             some thread runs OCaml code, never while every session
             waits on its socket. *)
          let stop_signals = [ Sys.sigterm; Sys.sigint ] in
          ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals : int list);
          let server =
            Server.start
              ~config:
                {
                  Server.port;
                  clients_max;
                  session;
                  service = config;
                  store_capacity;
                }
              epochs
          in
          Printf.eprintf "vqc-serve: listening on 127.0.0.1:%d\n%!"
            (Server.port server);
          (* no drain: the dump below and the exit do not wait on any
             session or its socket *)
          ignore (Thread.wait_signal stop_signals : int));
        Metrics.snapshot_to_trace ()
      in
      (match trace with
      | Some path -> Trace.with_file path execute
      | None -> execute ());
      if metrics then Format.eprintf "%a@." Metrics.pp ();
      0)

let jobs_term =
  let doc =
    "Worker domains compiling each batch in parallel.  Responses are \
     byte-identical for every value (latency lives under 'nd')."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let batch_term =
  let doc = "Flush the admission queue every $(docv) accepted requests." in
  Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc)

let queue_depth_term =
  let doc =
    "Admission-queue limit (per session under --tcp): requests beyond \
     $(docv) pending are rejected with a structured 'rejected' response \
     carrying code VQC130 (backpressure, not a crash)."
  in
  Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)

let cache_capacity_term =
  let doc = "Plan-cache capacity (LRU entries; per session under --tcp)." in
  Arg.(value & opt int 256 & info [ "cache-capacity" ] ~docv:"N" ~doc)

let no_cache_term =
  let doc =
    "Disable the plan cache: every request compiles (cache status \
     'bypass').  The deterministic fields of compile responses are \
     unchanged; epoch-move acks report an all-zero census, since there \
     is no cache to migrate."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let verify_term =
  let doc =
    "Statically verify every plan before serving it (translation \
     validation, including cache hits): an invalid plan becomes a \
     structured 'invalid' response carrying the verifier's diagnostics.  \
     Deterministic response fields of valid plans are unchanged."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let drift_threshold_term =
  let doc =
    "Selective epoch invalidation: on an epoch move, retain cached \
     plans whose predicted relative PST change against the new \
     calibration stays within $(docv) (re-verified statically), and \
     recompile the rest in the background.  0 reproduces the default \
     wholesale flush byte-identically.  Epoch-advance acks report the \
     retained/reverified/recompiled/invalidated tally either way."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "drift-threshold" ] ~docv:"LOSS" ~doc)

let seed_term =
  let doc = "Seed for the synthetic calibration history." in
  Arg.(value & opt int 2 & info [ "seed" ] ~docv:"SEED" ~doc)

let days_term =
  let doc =
    "Calibration epochs to synthesize (one per simulated day) when no \
     CSV files are given."
  in
  Arg.(value & opt int 8 & info [ "days" ] ~docv:"N" ~doc)

let csv_term =
  let doc =
    "Load a calibration epoch from an IBM-style calibration CSV \
     (repeatable; epoch order follows the flag order).  Overrides the \
     synthetic history."
  in
  Arg.(
    value & opt_all string [] & info [ "calibration-csv" ] ~docv:"FILE" ~doc)

let tcp_term =
  let doc =
    "Serve many concurrent clients on 127.0.0.1:$(docv) instead of \
     stdin/stdout (0 picks an ephemeral port, printed to stderr).  Each \
     connection is an isolated session — private plan cache, admission \
     queue and epoch cursor — over a shared worker pool and a shared \
     content-addressed compile store, so one client's compile becomes \
     every client's warm hit without ever changing anyone's \
     deterministic response bytes.  SIGTERM or SIGINT stops the server \
     at once, without waiting for its clients."
  in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let clients_max_term =
  let doc =
    "Concurrent-client cap under --tcp: further connections receive one \
     'rejected' line (reason server_full, code VQC131) and are closed."
  in
  Arg.(value & opt int 64 & info [ "clients-max" ] ~docv:"N" ~doc)

let max_line_term =
  let doc =
    "Refuse input lines longer than $(docv) bytes: the session answers \
     what it already accepted, emits a final structured error, and \
     closes.  Other sessions are unaffected."
  in
  Arg.(value & opt int (1 lsl 20) & info [ "max-line" ] ~docv:"BYTES" ~doc)

let store_capacity_term =
  let doc = "Shared compile-store capacity under --tcp (entries)." in
  Arg.(value & opt int 1024 & info [ "store-capacity" ] ~docv:"N" ~doc)

let metrics_term =
  let doc =
    "At exit (under --tcp, on SIGTERM or SIGINT), dump the metric \
     registry (cache hits/misses/evictions, queue accepted/rejected, \
     compile latencies) to stderr."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_term =
  let doc =
    "Append structured JSONL trace events (per-response and per-batch \
     service events, engine chunks, mapper passes, final metric \
     snapshot) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "serve variability-aware compilation requests over NDJSON" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per stdin line and writes one JSON \
         response per stdout line, in input order.  A request names a \
         catalog workload or carries inline OpenQASM 2.0, picks a \
         policy, and may pin a calibration epoch; control lines \
         ({\"op\": \"advance_epoch\"|\"set_epoch\"|\"flush\"}) rotate \
         the calibration epoch (invalidating superseded cached plans) \
         or force a flush.";
      `P
        "With --tcp PORT the same protocol serves many concurrent \
         clients over loopback TCP, one isolated session per \
         connection; a single client's response stream is \
         byte-identical to the stdin front end.";
      `P
        "A request carrying any of \"precision\", \"max_trials\" or \
         \"mc_seed\" additionally receives an adaptive Monte-Carlo PST \
         estimate of its plan: trials stream in fixed chunks until the \
         tighter of the Wilson / empirical-Bernstein 95% intervals \
         reaches the precision target (default 1e-3) or the trial \
         budget runs out.  \"max_trials\" defaults to, and may not \
         exceed, 1000000 (the paper's trials per workload): a larger \
         budget gets one error response instead of holding the session.  \
         The \"estimate\" response \
         object (trials, successes, pst, both intervals, half_width, \
         stop reason, budget, saved) is deterministic — seeded by \
         \"mc_seed\" (default 1) and identical for every --jobs — so \
         it renders top-level, not under \"nd\".  Estimator telemetry \
         lands under sim.estimator.* and service.estimates in \
         --metrics output.";
      `S Manpage.s_examples;
      `Pre
        "  echo '{\"id\":1,\"workload\":\"bv-16\"}' | vqc-serve\n\
        \  echo '{\"id\":2,\"workload\":\"bv-16\",\"precision\":1e-3}' \
         | vqc-serve\n\
        \  vqc-serve --jobs 4 --no-cache < requests.ndjson\n\
        \  vqc-serve --tcp 7421 --jobs 4 --clients-max 128";
    ]
  in
  Cmd.v
    (Cmd.info "vqc-serve" ~doc ~man)
    Term.(
      const run $ jobs_term $ batch_term $ queue_depth_term
      $ cache_capacity_term $ no_cache_term $ verify_term
      $ drift_threshold_term $ seed_term $ days_term $ csv_term $ tcp_term
      $ clients_max_term $ max_line_term $ store_capacity_term
      $ metrics_term $ trace_term)

let () = exit (Cmd.eval' cmd)
