(* The determinism-under-concurrency test wall for the TCP front end.

   Everything here holds one promise: a client's deterministic response
   bytes are a pure function of its own request stream.  Not of the
   worker count, not of what other clients do concurrently, not of the
   shared compile store's temperature.  The
   reference for every stream is the stdin session loop (the same
   Session code the TCP server runs), so single-client TCP equivalence
   is golden-enforced, and every concurrent client is held to its own
   single-client reference run.

   The robustness half feeds the server garbage — truncated JSON,
   invalid UTF-8, oversized lines, mid-line disconnects, a flooding
   client — and checks the blast radius is exactly one session. *)

module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Epoch = Vqc_service.Epoch
module Service = Vqc_service.Service
module Session = Vqc_serve_net.Session
module Server = Vqc_serve_net.Server
module Load = Vqc_serve_net.Load
module Diagnostic = Vqc_diag.Diagnostic
module Metrics = Vqc_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec at i =
    i + ln <= lh && (String.sub haystack i ln = needle || at (i + 1))
  in
  ln > 0 && at 0

(* Small workloads on the 5-qubit device keep each compile cheap: the
   wall exercises sessions and interleavings, not the mapper. *)
let epochs () =
  Epoch.of_history ~name:"Q5" ~coupling:Topologies.ibm_q5_tenerife
    (History.generate ~days:3 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5)

let workloads = [| "bv-3"; "bv-4"; "GHZ-3"; "TriSwap" |]

let req id workload =
  Printf.sprintf {|{"id":%d,"workload":"%s"}|} id workload

(* Per-client stream: compiles, repeats (cache hits), a flush, an epoch
   advance and an epoch pin mid-stream (so drift migration acks — whose
   census is deterministic — interleave with compiles), and one parse
   error.  Clients start at different rotation offsets so concurrent
   streams collide on the shared store without being identical. *)
let stream index =
  let w j = workloads.((index + j) mod Array.length workloads) in
  [
    req 1 (w 0);
    req 2 (w 1);
    {|{"op":"flush"}|};
    req 3 (w 2);
    req 4 (w 0);
    {|{"op":"advance_epoch"}|};
    req 5 (w 0);
    req 6 (w 3);
    Printf.sprintf {|{"op":"set_epoch","epoch":%d}|} (index mod 3);
    req 7 (w 1);
    "{not json";
    req 8 (w 2);
  ]

(* ---- nd stripping --------------------------------------------------- *)

(* Drop the [,"nd":{...}] member from a rendered response line.  The
   "nd" object is where every run-varying fact lives (latency, cache
   temperature); the rest of the line is the deterministic contract. *)
let strip_nd line =
  let marker = {|,"nd":{|} in
  let mlen = String.length marker in
  let len = String.length line in
  let rec find i =
    if i + mlen > len then None
    else if String.sub line i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
    let rec close i depth =
      match line.[i] with
      | '{' -> close (i + 1) (depth + 1)
      | '}' -> if depth = 1 then i else close (i + 1) (depth - 1)
      | _ -> close (i + 1) depth
    in
    let last = close (start + mlen) 1 in
    String.sub line 0 start ^ String.sub line (last + 1) (len - last - 1)

let deterministic lines = List.map strip_nd lines

(* ---- reference runs over the stdin loop ----------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "vqc_serve_net" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (line :: acc)
        | None -> List.rev acc
      in
      go [])

(* The golden for a stream: Session.run over file channels — exactly
   the stdin front end of vqc-serve, minus the terminal. *)
let stdin_run ?(session = Session.default_config) ?(epochs = epochs) ~config
    lines =
  with_temp_file (fun in_path ->
      with_temp_file (fun out_path ->
          Out_channel.with_open_text in_path (fun oc ->
              List.iter
                (fun line ->
                  Out_channel.output_string oc line;
                  Out_channel.output_char oc '\n')
                lines);
          let outcome =
            Service.with_service ~config (epochs ()) (fun service ->
                In_channel.with_open_text in_path (fun ic ->
                    Out_channel.with_open_text out_path (fun oc ->
                        let outcome = Session.run ~config:session service ic oc in
                        flush oc;
                        outcome)))
          in
          (outcome, read_lines out_path)))

(* ---- server scaffolding --------------------------------------------- *)

let base_config ~jobs =
  {
    Service.default_config with
    Service.jobs;
    cache_capacity = 8;
    (* non-wholesale drift: epoch moves run the selective retention
       pipeline, whose kept/dropped census lands in deterministic
       Control_ack fields *)
    drift = Some { Vqc_drift.Retention.threshold = 0.05 };
  }

let with_server ?(clients_max = 16) ?(session = Session.default_config)
    ?(epochs = epochs) ?(service = base_config) ~jobs f =
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          Server.clients_max;
          session;
          service = service ~jobs;
          store_capacity = 64;
        }
      (epochs ())
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (Server.port server))

(* Raw socket for the robustness tests: send exact bytes (including
   broken ones Load.client would never produce), read exact lines. *)
let with_raw_client port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      f fd)

let send fd text = ignore (Unix.write_substring fd text 0 (String.length text))

let read_all_lines fd =
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* ---- single-client TCP = stdin, golden-enforced --------------------- *)

let test_tcp_matches_stdin () =
  let lines = stream 0 in
  let _, golden = stdin_run ~config:(base_config ~jobs:1) lines in
  with_server ~jobs:1 (fun port ->
      let result = Load.client ~port ~requests:lines () in
      check_int "one response per request" (List.length lines)
        (List.length result.Load.lines);
      List.iteri
        (fun i (expected, actual) ->
          check_string
            (Printf.sprintf "line %d: TCP = stdin" i)
            expected actual)
        (List.combine (deterministic golden)
           (deterministic result.Load.lines)))

(* ---- the wire estimate rider, golden-enforced ----------------------- *)

(* vqc-serve's default Q20 rotation (seed 2), two days long.  The
   golden holds estimate riders over four workloads x three policies x
   two precisions, a budget stop, a full budget that is not a chunk
   multiple, a default rider, an inline-QASM rider and one rider over
   the trial ceiling.  Its estimate bytes predate the register-resident
   chunk kernel, so they pin the kernel's bit-identity through the whole
   wire path. *)
let q20_epochs () =
  Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo
    (History.generate ~days:2 ~seed:2 ~coupling:Topologies.ibm_q20_tokyo 20)

let estimate_service ~jobs = { Service.default_config with Service.jobs }

let test_estimate_rider_golden () =
  let requests = read_lines "fixtures/estimate_requests.ndjson" in
  let golden = read_lines "golden/estimate-rider.expected" in
  let check_lines name lines =
    check_int (name ^ ": one response per request") (List.length golden)
      (List.length lines);
    List.iteri
      (fun i (expected, actual) ->
        check_string (Printf.sprintf "%s: line %d" name i) expected actual)
      (List.combine golden (deterministic lines))
  in
  List.iter
    (fun jobs ->
      let _, lines =
        stdin_run ~epochs:q20_epochs ~config:(estimate_service ~jobs) requests
      in
      check_lines (Printf.sprintf "stdin jobs=%d" jobs) lines)
    [ 1; 2 ];
  with_server ~epochs:q20_epochs ~service:estimate_service ~jobs:1 (fun port ->
      check_lines "tcp" (Load.client ~port ~requests ()).Load.lines;
      (* the over-ceiling rider (the fixture's last line) alone: one
         error line, no trial run *)
      let over_ceiling = List.nth requests (List.length requests - 1) in
      let runs () =
        Metrics.counter_value (Metrics.counter "sim.estimator.runs")
      in
      let runs_before = runs () in
      let result = Load.client ~port ~requests:[ over_ceiling ] () in
      check_int "one response" 1 (List.length result.Load.lines);
      check "an error response" true
        (contains (List.hd result.Load.lines) {|"status":"error"|});
      check_int "refused before any trial" runs_before (runs ()))

(* ---- multi-client determinism wall ---------------------------------- *)

(* Every concurrent client's stream must replay to the bytes of its own
   single-client reference, for every combination of worker count and
   client count.  The goldens are computed once at jobs 1: equality
   across the matrix IS the jobs invariance claim. *)
let test_multi_client_determinism () =
  let goldens =
    Array.init 8 (fun index ->
        deterministic
          (snd (stdin_run ~config:(base_config ~jobs:1) (stream index))))
  in
  List.iter
    (fun (jobs, clients) ->
      with_server ~jobs (fun port ->
          let results =
            Load.run ~port ~clients ~requests:(fun index -> stream index) ()
          in
          Array.iteri
            (fun index result ->
              match result with
              | Error e ->
                Alcotest.failf "jobs=%d clients=%d client %d: %s" jobs
                  clients index e
              | Ok { Load.lines; _ } ->
                check
                  (Printf.sprintf
                     "jobs=%d clients=%d client %d matches its solo golden"
                     jobs clients index)
                  true
                  (deterministic lines = goldens.(index)))
            results))
    [ (1, 2); (1, 8); (4, 2); (4, 8) ]

(* ---- backpressure renders identically on both front ends ------------ *)

let test_queue_full_same_bytes () =
  (* queue_limit 2, batch larger than the stream: requests 3..5 meet a
     full queue and must be rejected with the VQC130 code — identically
     on stdin and TCP *)
  let config =
    { (base_config ~jobs:1) with Service.queue_limit = 2 }
  in
  let session = { Session.default_config with Session.batch = 100 } in
  let lines = List.init 5 (fun i -> req (i + 1) "bv-3") in
  let _, golden = stdin_run ~session ~config lines in
  let rejected =
    List.filter (fun line -> contains line "\"status\":\"rejected\"")
      golden
  in
  check_int "three rejections" 3 (List.length rejected);
  List.iter
    (fun line ->
      check "rejection carries the queue-full code" true
        (contains line
           (Printf.sprintf "\"code\":%S" Diagnostic.code_queue_full)))
    rejected;
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          Server.session = session;
          service = config;
          store_capacity = 64;
        }
      (epochs ())
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let result = Load.client ~port:(Server.port server) ~requests:lines () in
      check "queue-full bytes identical on TCP" true
        (deterministic result.Load.lines = deterministic golden))

(* ---- connection-level load shedding --------------------------------- *)

let test_server_full_rejection () =
  with_server ~clients_max:1 ~jobs:1 (fun port ->
      with_raw_client port (fun occupant ->
          (* prove the occupant's session is live before crowding it *)
          send occupant (req 1 "bv-3" ^ "\n");
          send occupant "{\"op\":\"flush\"}\n";
          let ic = Unix.in_channel_of_descr occupant in
          let first = input_line ic in
          check "occupant is served" true
            (contains first "\"status\":\"ok\"");
          let overflow = with_raw_client port read_all_lines in
          match overflow with
          | [ line ] ->
            check "server-full reason" true
              (contains line "\"reason\":\"server_full\"");
            check "server-full code" true
              (contains line
                 (Printf.sprintf "\"code\":%S" Diagnostic.code_server_full))
          | lines ->
            Alcotest.failf "expected exactly one rejection line, got %d"
              (List.length lines)))

(* ---- hosts: systhreads on at most one domain per core --------------- *)

(* [clients] raw connections from the calling thread (no client
   threads), each sending one [bv-3] request under [batch = 1]; [f]
   gets every connection's first response line while all of them are
   still open. *)
let with_raw_clients port clients f =
  let fds =
    List.init clients (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () ->
      List.iter
        (fun fd ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
        fds;
      List.iteri (fun i fd -> send fd (req (i + 1) "bv-3" ^ "\n")) fds;
      f (List.map (fun fd -> input_line (Unix.in_channel_of_descr fd)) fds))

let batch_one = { Session.default_config with Session.batch = 1 }

(* OCaml 5.1 refuses a process its 129th domain.  Sessions are
   systhreads on at most one host domain per core, so [clients_max] is
   the only cap: 130 concurrent clients are all served. *)
let test_more_clients_than_domains () =
  let clients = 130 in
  with_server ~clients_max:160 ~session:batch_one ~jobs:1 (fun port ->
      with_raw_clients port clients (fun lines ->
          check_int "every client served" clients
            (List.length
               (List.filter (fun line -> contains line {|"status":"ok"|}) lines))))

(* Spare hosts exist only while they hold sessions.  With eight clients
   connected and served, host 0 holds the first, one spare per
   remaining core is spawned for the next, and the rest join the host
   with the fewest sessions; once every client has hung up the spares
   retire.  Polls by short sleeps; no wall-clock reads. *)
let test_spare_hosts_retire () =
  let clients = 8 in
  let hosts () = Metrics.gauge_value (Metrics.gauge "serve.net.hosts") in
  with_server ~session:batch_one ~jobs:1 (fun port ->
      with_raw_clients port clients (fun lines ->
          List.iter
            (fun line -> check "served" true (contains line {|"status":"ok"|}))
            lines;
          check_int "one spare per core but host 0's"
            (min clients (Domain.recommended_domain_count ()) - 1)
            (int_of_float (hosts ())));
      let rec retired polls =
        if hosts () = 0.0 then true
        else if polls = 0 then false
        else begin
          Unix.sleepf 0.01;
          retired (polls - 1)
        end
      in
      check "spare hosts retire once every client hung up" true (retired 500))

(* ---- robustness: garbage kills one session, not the server ---------- *)

let test_fuzz_blast_radius () =
  let session = { Session.batch = 2; max_line = 128 } in
  let golden =
    deterministic
      (snd (stdin_run ~session ~config:(base_config ~jobs:1) (stream 0)))
  in
  with_server ~session ~jobs:2 (fun port ->
      (* a stuck client mid-line, held open across everything below: its
         unfinished garbage must not delay or corrupt anyone *)
      with_raw_client port (fun stuck ->
          send stuck "{\"id\":99,\"workl";
          (* truncated JSON: a Failed response, then normal service *)
          let truncated =
            with_raw_client port (fun fd ->
                send fd "{\"id\":1,\n";
                send fd (req 2 "bv-3" ^ "\n");
                read_all_lines fd)
          in
          (match truncated with
          | [ failed; served ] ->
            check "truncated line fails" true
              (contains failed "\"status\":\"error\"");
            check "same session still serves" true
              (contains served "\"status\":\"ok\"")
          | lines ->
            Alcotest.failf "truncated: expected 2 lines, got %d"
              (List.length lines));
          (* invalid UTF-8 bytes: a Failed response, session survives *)
          let invalid =
            with_raw_client port (fun fd ->
                send fd "\xff\xfe{\n";
                read_all_lines fd)
          in
          check_int "invalid UTF-8 answers one line" 1 (List.length invalid);
          check "invalid UTF-8 fails cleanly" true
            (contains (List.hd invalid) "\"status\":\"error\"");
          (* oversized line: accepted work is answered, then a typed
             error, then the session closes.  The three lines go out in
             one write: bytes still on their way when the server closes
             would make the client's socket reset, and its half-close
             fail, however correct the responses. *)
          let oversized =
            with_raw_client port (fun fd ->
                send fd
                  (req 1 "bv-3" ^ "\n" ^ String.make 300 'x' ^ "\n"
                 ^ req 2 "bv-3" ^ "\n");
                read_all_lines fd)
          in
          (match oversized with
          | [ served; refused ] ->
            check "accepted request answered before dying" true
              (contains served "\"status\":\"ok\"");
            check "oversized line reported" true
              (contains refused "exceeds the 128-byte limit")
          | lines ->
            Alcotest.failf "oversized: expected 2 lines, got %d"
              (List.length lines));
          (* mid-line disconnect: the partial line fails like any other
             garbage, the server moves on *)
          let partial =
            with_raw_client port (fun fd ->
                send fd "{\"id\":7";
                read_all_lines fd)
          in
          check_int "mid-line disconnect answers one line" 1
            (List.length partial);
          check "partial line fails cleanly" true
            (contains (List.hd partial) "\"status\":\"error\"");
          (* and through all of it, a well-behaved client still gets its
             exact golden bytes *)
          let clean = Load.client ~port ~requests:(stream 0) () in
          check "well-behaved client unharmed by the chaos" true
            (deterministic clean.Load.lines = golden)))

(* ---- the block line reader against the per-byte one ---------------- *)

(* The session's reader as it was: one [input_char] per byte. *)
let per_byte_line ic ~max_line =
  let buffer = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Session.Line (Buffer.contents buffer)
    | c ->
      if Buffer.length buffer >= max_line then Session.Too_long
      else begin
        Buffer.add_char buffer c;
        go ()
      end
    | exception End_of_file ->
      if Buffer.length buffer = 0 then Session.End
      else Session.Line (Buffer.contents buffer)
  in
  go ()

(* Every read up to and including the first [End] of a reader opened
   on a pipe that a concurrent writer fills with [pieces]. *)
let reads_through_pipe ~pieces ~open_reader =
  let r, w = Unix.pipe ~cloexec:true () in
  let writer =
    Thread.create
      (fun () ->
        List.iter
          (fun piece ->
            let rec put off =
              let rest = String.length piece - off in
              if rest > 0 then put (off + Unix.write_substring w piece off rest)
            in
            put 0)
          pieces;
        Unix.close w)
      ()
  in
  let ic = Unix.in_channel_of_descr r in
  let read = open_reader ic in
  (* every read but the last consumes at least one byte *)
  let limit = 1 + String.length (String.concat "" pieces) in
  let rec all count acc =
    if count > limit then Alcotest.fail "reader stopped consuming input";
    match read () with
    | Session.End -> List.rev (Session.End :: acc)
    | result -> all (count + 1) (result :: acc)
  in
  let results = all 0 [] in
  Thread.join writer;
  close_in ic;
  results

let rec split_pieces bytes sizes =
  match sizes with
  | _ when bytes = "" -> []
  | [] -> [ bytes ]
  | size :: rest ->
    let size = min size (String.length bytes) in
    String.sub bytes 0 size
    :: split_pieces (String.sub bytes size (String.length bytes - size)) rest

let gen_reader_case =
  QCheck2.Gen.(
    let* max_line =
      oneof [ int_range 0 8; int_range 9 64; oneofl [ 16384; 20000 ] ]
    in
    let length =
      oneof
        [
          oneofl [ 0; max 0 (max_line - 1); max_line; max_line + 1 ];
          int_bound ((2 * max_line) + 2);
          (if max_line >= 16384 then oneofl [ 16383; 16384; 16385 ]
           else return 1);
        ]
    in
    let line =
      let* n = length in
      let byte = map (fun c -> if c = '\n' then 'x' else c) char in
      string_size ~gen:byte (return n)
    in
    let* lines = list_size (int_bound 6) line in
    let* terminated = bool in
    let bytes =
      String.concat "\n" lines ^ if terminated && lines <> [] then "\n" else ""
    in
    let* sizes = list_size (int_bound 8) (int_range 1 20000) in
    return (max_line, bytes, sizes))

let test_reader_boundaries () =
  let reads ~max_line bytes =
    reads_through_pipe ~pieces:[ bytes ] ~open_reader:(fun ic ->
        let reader = Session.reader ic ~max_line in
        fun () -> Session.read_line reader)
  in
  check "empty input" true (reads ~max_line:4 "" = [ Session.End ]);
  check "exactly max_line bytes, then one more" true
    (reads ~max_line:4 "abcd\nabcde\n"
    = [ Session.Line "abcd"; Session.Too_long; Session.Line ""; Session.End ]);
  check "unterminated last line" true
    (reads ~max_line:4 "ab\ncd"
    = [ Session.Line "ab"; Session.Line "cd"; Session.End ]);
  let long = String.make 16384 'x' in
  check "newline on the block boundary" true
    (reads ~max_line:20000 (long ^ "\n" ^ long)
    = [ Session.Line long; Session.Line long; Session.End ])

let prop_block_reader_matches_per_byte =
  QCheck2.Test.make ~name:"block reader = per-byte reader" ~count:200
    ~print:(fun (max_line, bytes, sizes) ->
      Printf.sprintf "max_line %d, %d bytes %S, pieces %s" max_line
        (String.length bytes) bytes
        (String.concat "," (List.map string_of_int sizes)))
    gen_reader_case
    (fun (max_line, bytes, sizes) ->
      let expected =
        reads_through_pipe ~pieces:[ bytes ] ~open_reader:(fun ic () ->
            per_byte_line ic ~max_line)
      in
      let got =
        reads_through_pipe ~pieces:(split_pieces bytes sizes)
          ~open_reader:(fun ic ->
            let reader = Session.reader ic ~max_line in
            fun () -> Session.read_line reader)
      in
      got = expected)

let () =
  Alcotest.run "serve_net"
    [
      ( "determinism",
        [
          Alcotest.test_case "estimate rider golden (stdin jobs 1/2, TCP)"
            `Quick test_estimate_rider_golden;
          Alcotest.test_case "single-client TCP = stdin" `Quick
            test_tcp_matches_stdin;
          Alcotest.test_case "concurrent clients match solo goldens" `Slow
            test_multi_client_determinism;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "queue-full bytes identical on both front ends"
            `Quick test_queue_full_same_bytes;
          Alcotest.test_case "server-full connection shedding" `Quick
            test_server_full_rejection;
        ] );
      ( "hosts",
        [
          Alcotest.test_case "more clients than the runtime has domains"
            `Quick test_more_clients_than_domains;
          Alcotest.test_case "spare hosts retire" `Quick
            test_spare_hosts_retire;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "garbage kills one session, not the server"
            `Slow test_fuzz_blast_radius;
        ] );
      ( "line reader",
        [
          Alcotest.test_case "limit boundary and unterminated last line"
            `Quick test_reader_boundaries;
          QCheck_alcotest.to_alcotest prop_block_reader_matches_per_byte;
        ] );
    ]
