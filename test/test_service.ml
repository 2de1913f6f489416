(* Tests for the compilation service: fingerprints, the LRU plan cache,
   admission control, epoch rotation, the NDJSON protocol, and the
   end-to-end determinism contract (responses byte-identical modulo
   "nd" across worker counts and cache on/off). *)

module Circuit = Vqc_circuit.Circuit
module Qasm = Vqc_circuit.Qasm
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Catalog = Vqc_workloads.Catalog
module Metrics = Vqc_obs.Metrics
module Json = Vqc_obs.Json
module Json_io = Vqc_service.Json_io
module Fingerprint = Vqc_service.Fingerprint
module Policies = Vqc_service.Policies
module Plan_cache = Vqc_service.Plan_cache
module Epoch = Vqc_service.Epoch
module Admission = Vqc_service.Admission
module Protocol = Vqc_service.Protocol
module Service = Vqc_service.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let counter name =
  Metrics.counter_value (Metrics.counter name)

(* ---- Json_io ------------------------------------------------------- *)

let test_json_parse_values () =
  let ok text = Result.get_ok (Json_io.parse text) in
  check "null" true (ok "null" = Json.Null);
  check "bool" true (ok "true" = Json.Bool true);
  check "int" true (ok "42" = Json.Int 42);
  check "negative int" true (ok "-7" = Json.Int (-7));
  check "float" true (ok "2.5" = Json.Float 2.5);
  check "exponent is float" true (ok "1e3" = Json.Float 1000.0);
  check "string" true (ok {|"hi"|} = Json.String "hi");
  check "escapes" true (ok {|"a\nb\"c"|} = Json.String "a\nb\"c");
  check "unicode escape" true (ok {|"A"|} = Json.String "A");
  check "nested" true
    (ok {|{"a":[1,{"b":null}],"c":""}|}
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.String "");
        ])

let test_json_parse_errors () =
  let bad text = Result.is_error (Json_io.parse text) in
  check "empty" true (bad "");
  check "trailing garbage" true (bad "1 2");
  check "unterminated" true (bad {|"abc|});
  check "bare key" true (bad "{a:1}");
  check "trailing comma" true (bad "[1,]");
  check "lone surrogate" true (bad {|"\ud800"|})

let test_json_roundtrips_emitter () =
  (* whatever the obs emitter writes, the service parser reads back *)
  let value =
    Json.Obj
      [
        ("s", Json.String "line\nbreak\ttab\"quote\\");
        ("xs", Json.List [ Json.Int 1; Json.Float 0.5; Json.Bool false ]);
        ("n", Json.Null);
      ]
  in
  check "parse (emit x) = x" true
    (Result.get_ok (Json_io.parse (Json.to_string value)) = value)

(* Message and byte position of each string error. *)
let test_json_string_errors () =
  List.iter
    (fun (text, expected) ->
      match Json_io.parse text with
      | Error message -> check_string (String.escaped text) expected message
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      ({|"abc|}, "unterminated string at 4");
      ({|"a\n|}, "unterminated string at 4");
      ("\"a\001b\"", "raw control char in string at 2");
      ("\"\\n\031\"", "raw control char in string at 3");
      ({|"a\qb"|}, "bad escape at 3");
      ({|"a\|}, "bad escape at 3");
      ({|"\u12"|}, "truncated \\u escape at 3");
      ({|"\u12g4"|}, "bad \\u escape at 5");
      ({|"\ud800"|}, "unpaired surrogate at 7");
      ({|"\ud800\u0041"|}, "unpaired surrogate at 13");
      ({|"\udc00"|}, "unpaired surrogate at 7");
    ]

(* RFC 8259 numbers only, and finite ones. *)
let test_json_number_grammar () =
  List.iter
    (fun (text, expected) ->
      match Json_io.parse text with
      | Error message -> check_string text expected message
      | Ok _ -> Alcotest.failf "accepted %s" text)
    [
      ("+1", "bad number +1 at 2");
      ("01", "bad number 01 at 2");
      ("-01", "bad number -01 at 3");
      ("00.5", "bad number 00.5 at 4");
      (".5", "bad number .5 at 2");
      ("-.5", "bad number -.5 at 3");
      ("1.", "bad number 1. at 2");
      ("1e", "bad number 1e at 2");
      ("1e400", "bad number 1e400 at 5");
      ("-1e400", "bad number -1e400 at 6");
      ({|{"workload":"bv-3","epoch":+01}|}, "bad number +01 at 30");
    ];
  List.iter
    (fun (text, expected) ->
      check text true (Json_io.parse text = Ok expected))
    [
      ("0", Json.Int 0); ("-0", Json.Int 0); ("10", Json.Int 10);
      ("0.5", Json.Float 0.5); ("-1.5e-3", Json.Float (-1.5e-3));
      ("1E+2", Json.Float 100.0); ("2e0", Json.Float 2.0);
    ]

(* A code point spelled every way JSON allows: raw UTF-8 where legal,
   the short escapes, and [\u] escapes (surrogate pairs above the BMP)
   in either hex case. *)
let gen_json_spelling =
  QCheck2.Gen.(
    let* cp =
      oneof
        [
          int_range 0 0x7F; int_range 0x80 0x7FF; int_range 0x800 0xD7FF;
          int_range 0xE000 0xFFFF; int_range 0x10000 0x10FFFF;
          oneofl [ 0x22; 0x5C; 0x2F; 0x08; 0x0C; 0x0A; 0x0D; 0x09; 0x00; 0x1F ];
        ]
    in
    let* how = int_bound 2 and* upper = bool in
    let hex n = Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") n in
    let raw () =
      let b = Buffer.create 4 in
      Buffer.add_utf_8_uchar b (Uchar.of_int cp);
      Buffer.contents b
    in
    let escaped =
      if cp >= 0x10000 then
        let v = cp - 0x10000 in
        hex (0xD800 lor (v lsr 10)) ^ hex (0xDC00 lor (v land 0x3FF))
      else hex cp
    in
    let short =
      List.assoc_opt cp
        [
          (0x22, {|\"|}); (0x5C, {|\\|}); (0x2F, {|\/|}); (0x08, {|\b|});
          (0x0C, {|\f|}); (0x0A, {|\n|}); (0x0D, {|\r|}); (0x09, {|\t|});
        ]
    in
    let must_escape = cp < 0x20 || cp = 0x22 || cp = 0x5C in
    let spelled =
      match (how, short) with
      | 0, Some s -> s
      | 1, _ when not must_escape -> raw ()
      | _ -> escaped
    in
    return (spelled, raw ()))

let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"every string spelling parses to its UTF-8"
    ~count:500
    ~print:(fun pairs -> String.concat "" (List.map fst pairs))
    (QCheck2.Gen.list_size (QCheck2.Gen.int_bound 40) gen_json_spelling)
    (fun pairs ->
      let text = "\"" ^ String.concat "" (List.map fst pairs) ^ "\"" in
      let utf8 = String.concat "" (List.map snd pairs) in
      Json_io.parse text = Ok (Json.String utf8))

(* ---- Fingerprint --------------------------------------------------- *)

let test_fingerprint_known_value () =
  (* FNV-1a 64 test vectors (empty string = offset basis) *)
  check_string "empty" "cbf29ce484222325" (Fingerprint.of_string "");
  check_string "a" "af63dc4c8601ec8c" (Fingerprint.of_string "a")

let test_fingerprint_follows_content () =
  let bv = (Catalog.find "bv-16").Catalog.circuit in
  let reparsed = Qasm.of_string_exn (Qasm.to_string bv) in
  check_string "structurally equal circuits fingerprint identically"
    (Fingerprint.circuit bv)
    (Fingerprint.circuit reparsed);
  let ghz = (Catalog.find "GHZ-3").Catalog.circuit in
  check "distinct circuits fingerprint distinctly" true
    (Fingerprint.circuit bv <> Fingerprint.circuit ghz)

let test_fingerprint_distinguishes_epochs () =
  let history =
    History.generate ~days:3 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5
  in
  let fp d = Fingerprint.calibration (History.day history d) in
  check "different days fingerprint differently" true
    (fp 0 <> fp 1 && fp 1 <> fp 2)

(* ---- Plan_cache ---------------------------------------------------- *)

let key n =
  {
    Plan_cache.circuit_fp = Printf.sprintf "c%d" n;
    calibration_fp = "cal";
    policy = "p";
  }

let test_cache_lru_eviction () =
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert cache (key 1) 1;
  Plan_cache.insert cache (key 2) 2;
  (* touch key 1 so key 2 becomes the eviction candidate *)
  check "1 hit" true (Plan_cache.find cache (key 1) = Some 1);
  Plan_cache.insert cache (key 3) 3;
  check_int "bounded" 2 (Plan_cache.length cache);
  check "2 evicted" true (Plan_cache.find cache (key 2) = None);
  check "1 survives" true (Plan_cache.find cache (key 1) = Some 1);
  check "3 present" true (Plan_cache.find cache (key 3) = Some 3)

let test_cache_retain () =
  let cache = Plan_cache.create ~capacity:8 () in
  List.iter (fun n -> Plan_cache.insert cache (key n) n) [ 1; 2; 3; 4 ];
  let outcome =
    Plan_cache.migrate cache ~decide:(fun k _ ->
        if k.Plan_cache.circuit_fp = "c2" then Some k else None)
  in
  check_int "three dropped" 3 (List.length outcome.Plan_cache.dropped);
  check_int "one left" 1 (Plan_cache.length cache);
  check "survivor" true (Plan_cache.find cache (key 2) = Some 2)

let test_cache_counters () =
  let hits0 = counter "service.cache.hits" in
  let misses0 = counter "service.cache.misses" in
  let evictions0 = counter "service.cache.evictions" in
  let cache = Plan_cache.create ~capacity:1 () in
  check "miss" true (Plan_cache.find cache (key 1) = None);
  Plan_cache.insert cache (key 1) 1;
  check "hit" true (Plan_cache.find cache (key 1) = Some 1);
  Plan_cache.insert cache (key 2) 2;
  check_int "one hit counted" (hits0 + 1) (counter "service.cache.hits");
  check_int "one miss counted" (misses0 + 1) (counter "service.cache.misses");
  check_int "one eviction counted" (evictions0 + 1)
    (counter "service.cache.evictions")

(* ---- Plan_cache against a reference LRU model (qcheck) ------------- *)

(* Random op streams over 16 keys at capacities 1-20, so eviction is
   exercised, replayed against the cache and against a most-recent-first
   list written here.  After every op the two must agree on the find
   result, the entries in order, a migration's kept count and dropped
   list, and the movement of every counter. *)

type cache_op =
  | C_insert of int * int  (** key, value *)
  | C_find of int
  | C_migrate of int

let gen_cache_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (oneof
         [
           map2 (fun n v -> C_insert (n, v)) (int_bound 15) (int_bound 15);
           map (fun n -> C_find n) (int_bound 15);
           map (fun seed -> C_migrate seed) (int_bound 7);
         ]))

(* Deterministic, content-based migration decision: drop every fifth
   value, re-key even values to a seed-named calibration (onto an
   occupied key when an earlier migration with the same seed already
   put a plan there), keep odd values in place. *)
let migrate_decide seed k v =
  if v mod 5 = 4 then None
  else if v mod 2 = 0 then
    Some { k with Plan_cache.calibration_fp = Printf.sprintf "cal-m%d" seed }
  else Some k

type model = {
  capacity : int;
  mutable lru : (Plan_cache.key * int) list;  (** most recent first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidated : int;
  mutable retained : int;
}

let without k lru = List.filter (fun (k', _) -> k' <> k) lru

let model_insert m k v =
  let lru =
    if List.mem_assoc k m.lru then without k m.lru
    else if List.length m.lru < m.capacity then m.lru
    else begin
      m.evictions <- m.evictions + 1;
      List.filteri (fun i _ -> i < m.capacity - 1) m.lru
    end
  in
  m.lru <- (k, v) :: lru

let model_find m k =
  match List.assoc_opt k m.lru with
  | Some v ->
    m.hits <- m.hits + 1;
    m.lru <- (k, v) :: without k m.lru;
    Some v
  | None ->
    m.misses <- m.misses + 1;
    None

(* Entries are decided in LRU order; a re-key keeps its slot, and one
   onto a key some slot holds at that moment drops the stale copy. *)
let model_migrate m decide =
  let slots = Array.of_list (List.map Option.some m.lru) in
  let kept = ref 0 and dropped = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some (k, v) -> (
        match decide k v with
        | Some k' when k' = k -> incr kept
        | Some k' ->
          incr kept;
          let occupied =
            Array.exists
              (function Some (k'', _) -> k'' = k' | None -> false)
              slots
          in
          slots.(i) <- (if occupied then None else Some (k', v))
        | None ->
          slots.(i) <- None;
          dropped := (k, v) :: !dropped))
    slots;
  m.lru <- List.filter_map Fun.id (Array.to_list slots);
  m.invalidated <- m.invalidated + List.length !dropped;
  m.retained <- m.retained + !kept;
  (!kept, List.rev !dropped)

let model_counters m =
  [ m.hits; m.misses; m.evictions; m.invalidated; m.retained ]

let prop_cache_matches_model =
  QCheck2.Test.make ~name:"cache = reference LRU model" ~count:300
    QCheck2.Gen.(pair gen_cache_ops (int_range 1 20))
    (fun (ops, capacity) ->
      let prefix = "test.model" in
      let cache = Plan_cache.create ~metrics_prefix:prefix ~capacity () in
      let counters () =
        List.map
          (fun name -> counter (prefix ^ "." ^ name))
          [ "hits"; "misses"; "evictions"; "invalidated"; "retained" ]
      in
      let base = counters () in
      let m =
        {
          capacity;
          lru = [];
          hits = 0;
          misses = 0;
          evictions = 0;
          invalidated = 0;
          retained = 0;
        }
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | C_insert (n, v) ->
              Plan_cache.insert cache (key n) v;
              model_insert m (key n) v;
              true
            | C_find n -> Plan_cache.find cache (key n) = model_find m (key n)
            | C_migrate seed ->
              let outcome =
                Plan_cache.migrate cache ~decide:(migrate_decide seed)
              in
              (outcome.Plan_cache.kept, outcome.Plan_cache.dropped)
              = model_migrate m (migrate_decide seed)
          in
          agree
          && Plan_cache.entries cache = m.lru
          && List.map2 ( - ) (counters ()) base = model_counters m)
        ops)

(* ---- Admission ----------------------------------------------------- *)

let test_admission_bounds () =
  let queue = Admission.create ~limit:2 in
  check "1 admitted" true (Result.is_ok (Admission.enqueue queue "a"));
  check "2 admitted" true (Result.is_ok (Admission.enqueue queue "b"));
  (match Admission.enqueue queue "c" with
  | Error (Admission.Queue_full { depth; limit }) ->
    check_int "depth" 2 depth;
    check_int "limit" 2 limit
  | Ok () -> Alcotest.fail "third item must be rejected");
  check "fifo drain" true (Admission.drain queue = [ "a"; "b" ]);
  check_int "empty after drain" 0 (Admission.depth queue);
  check "admits again after drain" true
    (Result.is_ok (Admission.enqueue queue "d"))

(* ---- Protocol ------------------------------------------------------ *)

let test_protocol_parse () =
  (match Protocol.parse_line {|{"id":1,"workload":"bv-16"}|} with
  | Ok (Protocol.Compile r) ->
    check "id echoed" true (r.Protocol.id = Some (Json.Int 1));
    check "workload" true (r.Protocol.source = Protocol.Workload "bv-16");
    check_string "default policy" Policies.default_label r.Protocol.policy;
    check "no epoch pin" true (r.Protocol.epoch = None)
  | _ -> Alcotest.fail "compile request expected");
  (match
     Protocol.parse_line
       {|{"qasm":"OPENQASM 2.0;","policy":"baseline","epoch":3}|}
   with
  | Ok (Protocol.Compile r) ->
    check "qasm" true (r.Protocol.source = Protocol.Inline_qasm "OPENQASM 2.0;");
    check_string "policy" "baseline" r.Protocol.policy;
    check "epoch pin" true (r.Protocol.epoch = Some 3)
  | _ -> Alcotest.fail "inline request expected");
  check "advance op" true
    (Protocol.parse_line {|{"op":"advance_epoch"}|}
    = Ok (Protocol.Control Protocol.Advance_epoch));
  check "set op" true
    (Protocol.parse_line {|{"op":"set_epoch","epoch":2}|}
    = Ok (Protocol.Control (Protocol.Set_epoch 2)))

let test_protocol_parse_errors () =
  let bad line = Result.is_error (Protocol.parse_line line) in
  check "not json" true (bad "nope");
  check "not an object" true (bad "[1]");
  check "no source" true (bad {|{"id":1}|});
  check "both sources" true (bad {|{"workload":"alu","qasm":"x"}|});
  check "bad policy type" true (bad {|{"workload":"alu","policy":3}|});
  check "bad epoch type" true (bad {|{"workload":"alu","epoch":"x"}|});
  check "unknown op" true (bad {|{"op":"restart"}|});
  check "set_epoch without epoch" true (bad {|{"op":"set_epoch"}|})

let test_protocol_render_shapes () =
  let rejected =
    Protocol.render
      (Protocol.Rejected
         {
           id = Some (Json.String "j1");
           reason = Admission.Queue_full { depth = 4; limit = 4 };
         })
  in
  check_string "rejection is structured"
    {|{"id":"j1","status":"rejected","reason":"queue_full","code":"VQC130","depth":4,"limit":4}|}
    rejected;
  let failed =
    Protocol.render (Protocol.Failed { id = None; error = "boom" })
  in
  check_string "error shape" {|{"status":"error","error":"boom"}|} failed;
  (* every rendered response reparses as one JSON object *)
  List.iter
    (fun line -> check "response is valid JSON" true
        (match Json_io.parse line with Ok (Json.Obj _) -> true | _ -> false))
    [ rejected; failed ]

(* ---- Service end-to-end -------------------------------------------- *)

let q5_epochs () =
  Epoch.of_history ~name:"Q5" ~coupling:Topologies.ibm_q5_tenerife
    (History.generate ~days:3 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5)

let request ?id ?policy ?epoch workload =
  {
    Protocol.id = Option.map (fun i -> Json.Int i) id;
    source = Protocol.Workload workload;
    policy = Option.value policy ~default:Policies.default_label;
    epoch;
    estimate = None;
  }

let batch = [ "bv-3"; "bv-4"; "GHZ-3"; "TriSwap"; "bv-3" ]

let run_batch service =
  List.iteri
    (fun i name ->
      match Service.submit service (request ~id:i name) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "unexpected rejection")
    batch;
  Service.flush service

(* Strip the nd section at the value level: deterministic fields must
   be byte-identical across jobs and cache configurations. *)
let deterministic_lines responses =
  List.map
    (fun response ->
      Protocol.render
        (match response with
        | Protocol.Compiled c ->
          Protocol.Compiled { c with seconds = 0.0; cache = Protocol.Bypass }
        | other -> other))
    responses

(* Compile lines are identical across jobs and cache on/off; the census
   of the epoch move that follows describes the session cache, so it is
   equal across jobs and all zeros with the cache off. *)
let test_service_deterministic_across_jobs_and_cache () =
  let runs =
    List.map
      (fun config ->
        Service.with_service ~config (q5_epochs ()) (fun service ->
            let lines = deterministic_lines (run_batch service) in
            let _, census = Service.advance_epoch service in
            (config.Service.cache_enabled, lines, census)))
      [
        { Service.default_config with Service.jobs = 1 };
        { Service.default_config with Service.jobs = 4 };
        { Service.default_config with Service.jobs = 1; cache_enabled = false };
        { Service.default_config with Service.jobs = 4; cache_enabled = false };
      ]
  in
  match runs with
  | (_, reference, cached_census) :: others ->
    check_int "five responses" (List.length batch) (List.length reference);
    check_int "the four distinct plans are invalidated" 4
      cached_census.Epoch.invalidated;
    List.iteri
      (fun i (cache_enabled, lines, census) ->
        List.iter2
          (check_string (Printf.sprintf "run %d matches jobs-1 cached" (i + 1)))
          reference lines;
        if cache_enabled then
          check (Printf.sprintf "run %d census matches jobs-1" (i + 1)) true
            (census = cached_census)
        else
          check (Printf.sprintf "run %d census is zero without a cache" (i + 1))
            true
            (census = Epoch.no_migration))
      others
  | [] -> assert false

let test_service_warm_cache_hits () =
  Service.with_service (q5_epochs ()) (fun service ->
      let hits0 = counter "service.cache.hits" in
      let cold = run_batch service in
      (* the duplicate bv-3 in the batch compiles once but both
         responses are cold-path responses *)
      check "cold run has no hits" true
        (List.for_all
           (function
             | Protocol.Compiled { cache = Protocol.Miss; _ } -> true
             | _ -> false)
           cold);
      let warm = run_batch service in
      check "warm run is all hits" true
        (List.for_all
           (function
             | Protocol.Compiled { cache = Protocol.Hit; _ } -> true
             | _ -> false)
           warm);
      check "warm hits counted" true (counter "service.cache.hits" > hits0);
      List.iter2
        (check_string "warm deterministic fields match cold")
        (deterministic_lines cold) (deterministic_lines warm))

(* The TCP server's L2: sessions sharing a store serve byte-identical
   deterministic fields to a store-less run — store temperature may
   only move metrics and the "nd" section. *)
let test_service_shared_store_warms_across_sessions () =
  let baseline =
    Service.with_service (q5_epochs ()) (fun service ->
        deterministic_lines (run_batch service))
  in
  let store = Service.shared_store ~capacity:64 () in
  let run_with_store () =
    let service = Service.create ~store (q5_epochs ()) in
    Fun.protect
      ~finally:(fun () -> Service.shutdown service)
      (fun () -> run_batch service)
  in
  let first = run_with_store () in
  let store_hits0 = counter "serve.store.hits" in
  let second = run_with_store () in
  check "second session warms from the store" true
    (counter "serve.store.hits" > store_hits0);
  List.iter2
    (check_string "store-warmed bytes match the store-less run")
    baseline (deterministic_lines first);
  List.iter2
    (check_string "second session bytes match the store-less run")
    baseline (deterministic_lines second)

let test_service_queue_overflow_is_structured () =
  let config = { Service.default_config with Service.queue_limit = 2 } in
  Service.with_service ~config (q5_epochs ()) (fun service ->
      check "1 admitted" true (Result.is_ok (Service.submit service (request "bv-3")));
      check "2 admitted" true (Result.is_ok (Service.submit service (request "bv-4")));
      (match Service.submit service (request "GHZ-3") with
      | Error reason ->
        let line =
          Protocol.render (Protocol.Rejected { id = None; reason })
        in
        check "rejection renders" true
          (match Json_io.parse line with
          | Ok json ->
            Option.bind (Json_io.member "status" json) Json_io.string_value
            = Some "rejected"
          | Error _ -> false)
      | Ok () -> Alcotest.fail "third submit must be rejected");
      check_int "only admitted requests compile" 2
        (List.length (Service.flush service)))

let test_service_epoch_rotation_invalidates () =
  Service.with_service (q5_epochs ()) (fun service ->
      let compile_one ?epoch () =
        match Service.submit service (request ?epoch "bv-3") with
        | Ok () -> begin
          match Service.flush service with
          | [ Protocol.Compiled { plan; cache; _ } ] -> (cache, plan)
          | _ -> Alcotest.fail "one compiled response expected"
        end
        | Error _ -> Alcotest.fail "unexpected rejection"
      in
      let deterministic plan =
        Protocol.render
          (Protocol.Compiled
             { id = None; plan; estimate = None; cache = Protocol.Bypass;
               seconds = 0.0 })
      in
      let first_cache, first_plan = compile_one () in
      check "cold" true (first_cache = Protocol.Miss);
      check "hot on repeat" true (fst (compile_one ()) = Protocol.Hit);
      let invalidated0 = counter "service.cache.invalidated" in
      let next, migration = Service.advance_epoch service in
      check_int "rotated to epoch 1" 1 next;
      check "rotation invalidated the plan" true
        (counter "service.cache.invalidated" > invalidated0);
      check_int "migration reports the invalidation" 1
        migration.Epoch.invalidated;
      check_int "nothing retained across a wholesale advance" 0
        migration.Epoch.retained;
      let second_cache, second_plan = compile_one () in
      check "cold again after rotation" true (second_cache = Protocol.Miss);
      check "new epoch, new calibration fingerprint" true
        (second_plan.Protocol.calibration_fp
        <> first_plan.Protocol.calibration_fp);
      (* pinning the superseded epoch recompiles against it exactly *)
      let _, pinned_plan = compile_one ~epoch:0 () in
      check_string "pinned epoch reproduces the original plan fields"
        (deterministic first_plan) (deterministic pinned_plan))

(* Edge case: with a single epoch, advance wraps to itself and the
   wholesale path must invalidate nothing — every cached plan is still
   keyed by the live calibration. *)
let test_epoch_single_wraps_to_itself () =
  let single =
    Epoch.of_history ~name:"Q5" ~coupling:Topologies.ibm_q5_tenerife
      (History.generate ~days:1 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5)
  in
  Service.with_service single (fun service ->
      (match Service.submit service (request "bv-3") with
      | Ok () -> ignore (Service.flush service)
      | Error _ -> Alcotest.fail "unexpected rejection");
      let next, migration = Service.advance_epoch service in
      check_int "wraps to epoch 0" 0 next;
      check_int "nothing invalidated" 0 migration.Epoch.invalidated;
      check_int "the plan survives" 1 migration.Epoch.retained;
      (match Service.submit service (request "bv-3") with
      | Ok () -> begin
        match Service.flush service with
        | [ Protocol.Compiled { cache = Protocol.Hit; _ } ] -> ()
        | _ -> Alcotest.fail "cached plan must survive a wrapped advance"
      end
      | Error _ -> Alcotest.fail "unexpected rejection"))

let drift_config threshold =
  {
    Service.default_config with
    Service.drift = Some { Vqc_drift.Retention.threshold };
  }

(* A forgiving threshold retains every plan across the advance (after
   re-verification); requests against the new epoch then hit the cache
   with the retained plan's original provenance. *)
let test_service_drift_retains_and_recompiles () =
  Service.with_service ~config:(drift_config 1.0) (q5_epochs ())
    (fun service ->
      let submit_all () =
        List.iter
          (fun workload ->
            match Service.submit service (request workload) with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "unexpected rejection")
          [ "bv-3"; "bv-4"; "GHZ-3" ];
        Service.flush service
      in
      let cold = submit_all () in
      check_int "three compiled" 3 (List.length cold);
      let recompiles0 = counter "drift.recompiles" in
      let next, migration = Service.advance_epoch service in
      check_int "rotated to epoch 1" 1 next;
      check_int "all three retained" 3 migration.Epoch.retained;
      check_int "all three re-verified" 3 migration.Epoch.reverified;
      check_int "nothing recompiled" 0 migration.Epoch.recompiled;
      check_int "nothing invalidated" 0 migration.Epoch.invalidated;
      check_int "no background compiles" recompiles0
        (counter "drift.recompiles");
      let warm = submit_all () in
      List.iter
        (fun response ->
          match response with
          | Protocol.Compiled { plan; cache; _ } ->
            check "retained plan serves as a hit" true (cache = Protocol.Hit);
            check_int "provenance keeps the compile-time epoch" 0
              plan.Protocol.epoch
          | _ -> Alcotest.fail "compiled response expected")
        warm;
      (* an impossible threshold demotes everything: the migration
         recompiles in the background and the cache stays warm *)
      Service.with_service ~config:(drift_config 1e-12) (q5_epochs ())
        (fun strict ->
          List.iter
            (fun workload ->
              match Service.submit strict (request workload) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "unexpected rejection")
            [ "bv-3"; "bv-4"; "GHZ-3" ];
          ignore (Service.flush strict);
          let _, migration = Service.advance_epoch strict in
          check_int "nothing retained" 0 migration.Epoch.retained;
          check_int "all demoted plans recompiled" 3
            migration.Epoch.recompiled;
          check_int "all invalidated" 3 migration.Epoch.invalidated;
          List.iter
            (fun workload ->
              match Service.submit strict (request workload) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "unexpected rejection")
            [ "bv-3"; "bv-4"; "GHZ-3" ];
          List.iter
            (fun response ->
              match response with
              | Protocol.Compiled { plan; cache; _ } ->
                check "background recompile pre-warmed the cache" true
                  (cache = Protocol.Hit);
                check_int "recompiled plan carries the new epoch" 1
                  plan.Protocol.epoch
              | _ -> Alcotest.fail "compiled response expected")
            (Service.flush strict)))

(* threshold = 0 must be byte-identical to no drift configuration at
   all: same responses, same migration tallies, over the same request
   stream. *)
let test_service_drift_zero_threshold_is_wholesale () =
  let script service =
    let submit_all () =
      List.iter
        (fun workload ->
          match Service.submit service (request workload) with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "unexpected rejection")
        [ "bv-3"; "bv-4"; "GHZ-3" ];
      Service.flush service
    in
    let before = submit_all () in
    let _, migration = Service.advance_epoch service in
    let after = submit_all () in
    (deterministic_lines (before @ after), migration)
  in
  let wholesale_lines, wholesale_migration =
    Service.with_service (q5_epochs ()) script
  in
  let zero_lines, zero_migration =
    Service.with_service ~config:(drift_config 0.0) (q5_epochs ()) script
  in
  List.iter2
    (check_string "threshold 0 reproduces the wholesale responses")
    wholesale_lines zero_lines;
  check "threshold 0 reproduces the wholesale migration" true
    (wholesale_migration = zero_migration)

let test_service_failures_are_responses () =
  Service.with_service (q5_epochs ()) (fun service ->
      let submit r =
        match Service.submit service r with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "unexpected rejection"
      in
      submit (request "no-such-workload");
      submit (request ~policy:"no-such-policy" "bv-3");
      submit (request ~epoch:99 "bv-3");
      (* bv-16 cannot fit the 5-qubit device *)
      submit (request "bv-16");
      let inline text =
        submit
          {
            Protocol.id = None;
            source = Protocol.Inline_qasm text;
            policy = Policies.default_label;
            epoch = None;
            estimate = None;
          }
      in
      inline "OPENQASM 2.0; qreg q[broken";
      (* a malformed angle number once raised out of the parser *)
      inline "qreg q[1]; rz(1e) q[0];";
      let responses = Service.flush service in
      check_int "six failures" 6 (List.length responses);
      List.iter
        (fun response ->
          check "structured failure" true
            (match response with Protocol.Failed _ -> true | _ -> false))
        responses)

(* A short inline program declaring a huge register is refused by the
   parser before [h q] expands gate by gate: one failure, and almost no
   allocation where the expansion would allocate ~10^7 words. *)
let test_service_huge_register_is_refused_cheaply () =
  Service.with_service (q5_epochs ()) (fun service ->
      let request =
        {
          Protocol.id = None;
          source =
            Protocol.Inline_qasm "OPENQASM 2.0;\nqreg q[1000000];\nh q;\n";
          policy = Policies.default_label;
          epoch = None;
          estimate = None;
        }
      in
      let words0 = Gc.minor_words () in
      let submitted = Service.submit service request in
      let responses = Service.flush service in
      let words = Gc.minor_words () -. words0 in
      check "admitted" true (Result.is_ok submitted);
      check (Printf.sprintf "%.0f minor words < 1e5" words) true (words < 1e5);
      match responses with
      | [ Protocol.Failed { error; _ } ] ->
        check_string "parse error names the register and the bound"
          "QASM parse error: line 2: register q[1000000] takes the circuit \
           past 5 qubits"
          error
      | _ -> Alcotest.fail "one failed response expected")

(* The wire caps an estimate rider's budget at the paper's one million
   trials: the ceiling itself is served, one trial more is refused, and
   a budget no session could ever finish is refused before a single
   trial runs. *)
let test_service_trial_ceiling () =
  Service.with_service (q5_epochs ()) (fun service ->
      List.iter
        (fun (max_trials, precision, refusal) ->
          let rider = { Protocol.precision; max_trials; mc_seed = 1 } in
          let runs = counter "sim.estimator.runs" in
          (match
             Service.submit service
               { (request ~id:1 "bv-3") with Protocol.estimate = Some rider }
           with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "unexpected rejection");
          let name = Printf.sprintf "max_trials %d" max_trials in
          match (Service.flush service, refusal) with
          | [ Protocol.Compiled { estimate = Some e; _ } ], None ->
            check_int (name ^ ": budget") max_trials e.Vqc_sim.Estimator.budget
          | [ Protocol.Failed { error; _ } ], Some message ->
            check_string name message error;
            check_int (name ^ ": refused before any trial") runs
              (counter "sim.estimator.runs")
          | _ -> Alcotest.failf "%s: unexpected response" name)
        [
          (1_000_000, 1e-2, None);
          ( 1_000_001,
            1e-2,
            Some "estimate: max-trials must be at most 1000000 (got 1000001)"
          );
          ( max_int,
            0.0,
            Some
              "estimate: max-trials must be at most 1000000 (got \
               4611686018427387903)" );
        ])

(* A program with no qubits compiles to the empty plan under every
   policy, the VQA ones included (their region search once refused a
   size-0 region): the responses differ in nothing but the label. *)
let test_service_empty_program_every_policy () =
  Service.with_service (q5_epochs ()) (fun service ->
      List.iter
        (fun label ->
          match
            Service.submit service
              {
                Protocol.id = Some (Json.Int 1);
                source = Protocol.Inline_qasm "OPENQASM 2.0;\n";
                policy = label;
                epoch = None;
                estimate = None;
              }
          with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "unexpected rejection")
        (Policies.names ());
      let lines = deterministic_lines (Service.flush service) in
      check_int "one response per policy" (List.length Policies.all)
        (List.length lines);
      let find_sub needle line =
        let n = String.length needle in
        let rec go i =
          if i + n > String.length line then None
          else if String.sub line i n = needle then Some i
          else go (i + 1)
        in
        go 0
      in
      let unlabeled =
        List.map2
          (fun label line ->
            let field = Printf.sprintf "\"policy\":%S," label in
            match find_sub field line with
            | Some at ->
              String.sub line 0 at
              ^ String.sub line (at + String.length field)
                  (String.length line - at - String.length field)
            | None -> Alcotest.failf "%s: no policy field in %s" label line)
          (Policies.names ()) lines
      in
      List.iter
        (check_string "same response as the baseline's" (List.hd unlabeled))
        unlabeled;
      check "compiled to the empty layout" true
        (find_sub "\"status\":\"ok\"" (List.hd lines) <> None
        && find_sub "\"qubits\":0,\"layout\":[]," (List.hd lines) <> None))

(* ---- runner -------------------------------------------------------- *)

let () =
  Alcotest.run "vqc_service"
    [
      ( "json io",
        [
          Alcotest.test_case "values" `Quick test_json_parse_values;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "string errors" `Quick test_json_string_errors;
          Alcotest.test_case "number grammar" `Quick test_json_number_grammar;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
          Alcotest.test_case "emitter roundtrip" `Quick
            test_json_roundtrips_emitter;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "known vectors" `Quick test_fingerprint_known_value;
          Alcotest.test_case "content addressed" `Quick
            test_fingerprint_follows_content;
          Alcotest.test_case "epoch sensitive" `Quick
            test_fingerprint_distinguishes_epochs;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "retain" `Quick test_cache_retain;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          QCheck_alcotest.to_alcotest prop_cache_matches_model;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounds" `Quick test_admission_bounds ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "parse errors" `Quick test_protocol_parse_errors;
          Alcotest.test_case "render shapes" `Quick test_protocol_render_shapes;
        ] );
      ( "service",
        [
          Alcotest.test_case "deterministic across jobs and cache" `Quick
            test_service_deterministic_across_jobs_and_cache;
          Alcotest.test_case "warm cache hits" `Quick
            test_service_warm_cache_hits;
          Alcotest.test_case "shared store warms across sessions" `Quick
            test_service_shared_store_warms_across_sessions;
          Alcotest.test_case "queue overflow" `Quick
            test_service_queue_overflow_is_structured;
          Alcotest.test_case "epoch rotation" `Quick
            test_service_epoch_rotation_invalidates;
          Alcotest.test_case "single epoch wraps without invalidation" `Quick
            test_epoch_single_wraps_to_itself;
          Alcotest.test_case "drift retention and background recompile"
            `Quick test_service_drift_retains_and_recompiles;
          Alcotest.test_case "drift threshold 0 is wholesale" `Quick
            test_service_drift_zero_threshold_is_wholesale;
          Alcotest.test_case "failures are responses" `Quick
            test_service_failures_are_responses;
          Alcotest.test_case "estimate trial ceiling" `Quick
            test_service_trial_ceiling;
          Alcotest.test_case "huge register refused cheaply" `Quick
            test_service_huge_register_is_refused_cheaply;
          Alcotest.test_case "empty program under every policy" `Quick
            test_service_empty_program_every_policy;
        ] );
    ]
