(* Golden-output regression harness: the experiment renders ARE the
   product of this reproduction, so they are pinned byte-for-byte
   against committed expected files.  A mismatch fails with a unified
   diff; `dune promote` (via the sibling golden_gen rules) regenerates
   the expected files intentionally.

   The same suite pins the no-perturbation rule: attaching a trace sink
   or changing the worker count must not move a single output byte. *)

module Registry = Vqc_experiments.Registry
module Context = Vqc_experiments.Context
module Pool = Vqc_engine.Pool
module Trace = Vqc_obs.Trace
module Metrics = Vqc_obs.Metrics

let check = Alcotest.(check bool)

(* Must stay in sync with the golden_gen rules in test/dune. *)
let golden_ids = [ "tab1"; "abl-model"; "tab2"; "abl-mc"; "fig12" ]

let render ?(jobs = 1) id =
  let ctx = Context.default |> Context.with_jobs jobs in
  let buffer = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buffer in
  (Registry.find id).Registry.run ppf ctx;
  Format.pp_print_flush ppf ();
  Buffer.contents buffer

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- unified diff --------------------------------------------------- *)

let unified_diff ~expected ~actual =
  if String.equal expected actual then None
  else begin
    let a = Array.of_list (String.split_on_char '\n' expected) in
    let b = Array.of_list (String.split_on_char '\n' actual) in
    let n = Array.length a and m = Array.length b in
    (* lcs.(i).(j): LCS length of a[i..] and b[j..] *)
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let script = ref [] in
    let i = ref 0 and j = ref 0 in
    while !i < n || !j < m do
      if !i < n && !j < m && a.(!i) = b.(!j) then begin
        script := (' ', a.(!i)) :: !script;
        incr i;
        incr j
      end
      else if !j < m && (!i = n || lcs.(!i).(!j + 1) >= lcs.(!i + 1).(!j))
      then begin
        script := ('+', b.(!j)) :: !script;
        incr j
      end
      else begin
        script := ('-', a.(!i)) :: !script;
        incr i
      end
    done;
    let script = Array.of_list (List.rev !script) in
    let length = Array.length script in
    (* old/new line number before each script entry (0-based) *)
    let old_pos = Array.make (length + 1) 0 in
    let new_pos = Array.make (length + 1) 0 in
    Array.iteri
      (fun k (tag, _) ->
        old_pos.(k + 1) <- (old_pos.(k) + if tag = '+' then 0 else 1);
        new_pos.(k + 1) <- (new_pos.(k) + if tag = '-' then 0 else 1))
      script;
    (* keep changed entries plus 3 lines of context, grouped into hunks *)
    let context = 3 in
    let keep = Array.make length false in
    Array.iteri
      (fun k (tag, _) ->
        if tag <> ' ' then
          for d = max 0 (k - context) to min (length - 1) (k + context) do
            keep.(d) <- true
          done)
      script;
    let buffer = Buffer.create 1024 in
    Buffer.add_string buffer "--- expected\n+++ actual\n";
    let k = ref 0 in
    while !k < length do
      if not keep.(!k) then incr k
      else begin
        let start = !k in
        let stop = ref start in
        while !stop < length && keep.(!stop) do
          incr stop
        done;
        let old_count = old_pos.(!stop) - old_pos.(start) in
        let new_count = new_pos.(!stop) - new_pos.(start) in
        Buffer.add_string buffer
          (Printf.sprintf "@@ -%d,%d +%d,%d @@\n"
             (old_pos.(start) + 1)
             old_count
             (new_pos.(start) + 1)
             new_count);
        for d = start to !stop - 1 do
          let tag, line = script.(d) in
          Buffer.add_char buffer tag;
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n'
        done;
        k := !stop
      end
    done;
    Some (Buffer.contents buffer)
  end

(* ---- golden comparisons --------------------------------------------- *)

let test_golden id () =
  let expected = read_file (Filename.concat "golden" (id ^ ".expected")) in
  match unified_diff ~expected ~actual:(render id) with
  | None -> ()
  | Some diff ->
    Alcotest.fail
      (Printf.sprintf
         "%s drifted from test/golden/%s.expected\n\
          %s\n\
          If the change is intentional, regenerate with `dune runtest` + \
          `dune promote`."
         id id diff)

let test_detects_one_char_perturbation () =
  let expected = read_file "golden/tab1.expected" in
  check "expected file is non-trivial" true (String.length expected > 100);
  let perturbed = Bytes.of_string expected in
  let position = Bytes.length perturbed / 2 in
  let original = Bytes.get perturbed position in
  Bytes.set perturbed position (if original = 'x' then 'y' else 'x');
  match unified_diff ~expected:(Bytes.to_string perturbed) ~actual:expected with
  | None -> Alcotest.fail "a 1-character perturbation went undetected"
  | Some diff ->
    check "diff has a removal" true (String.length diff > 0 &&
      List.exists
        (fun l -> String.length l > 0 && l.[0] = '-')
        (String.split_on_char '\n' diff));
    check "diff has an addition" true
      (List.exists
         (fun l -> String.length l > 0 && l.[0] = '+')
         (String.split_on_char '\n' diff))

let test_diff_of_equal_is_none () =
  check "no diff for equal" true
    (unified_diff ~expected:"a\nb\n" ~actual:"a\nb\n" = None)

(* ---- the no-perturbation rule --------------------------------------- *)

(* abl-mc exercises compiler + Monte-Carlo, so it would catch an
   instrumentation bug that consumed RNG or wrote into the report. *)

let test_trace_sink_does_not_perturb_output () =
  let plain = render "abl-mc" in
  let captured = Buffer.create 4096 in
  let traced =
    Trace.with_sink
      {
        write = (fun line -> Buffer.add_string captured line);
        flush = ignore;
      }
      (fun () -> render "abl-mc")
  in
  Alcotest.(check string) "byte-identical with a sink attached" plain traced;
  check "the sink actually saw events" true (Buffer.length captured > 0)

let test_jobs_do_not_perturb_output () =
  Alcotest.(check string)
    "jobs=1 = jobs=4" (render ~jobs:1 "abl-mc") (render ~jobs:4 "abl-mc")

(* CLI-shaped end-to-end check: fan experiment ids across a pool the way
   bin/experiments.ml does, with a JSONL trace file attached, and pin
   (a) stdout bytes across worker counts, (b) trace validity, (c) that
   engine, sim, and mapper all reported. *)
let test_cli_fanout_trace_and_bytes () =
  let ids = [ "tab1"; "abl-mc" ] in
  let fan_out jobs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool ~f:(fun _ id -> render ~jobs id) ids)
    |> String.concat ""
  in
  let path = Filename.temp_file "vqc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let parallel =
        Trace.with_file path (fun () ->
            let output = fan_out 2 in
            Metrics.snapshot_to_trace ();
            output)
      in
      Alcotest.(check string) "stdout bytes: jobs=1 = jobs=2" (fan_out 1)
        parallel;
      let lines =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      check "trace is non-empty" true (lines <> []);
      let sources =
        List.map
          (fun line ->
            match Vqc_service.Json_io.parse line with
            | Error reason ->
              Alcotest.fail
                (Printf.sprintf "invalid JSONL line (%s): %s" reason line)
            | Ok json -> (
              match Vqc_service.Json_io.member "source" json with
              | Some (Vqc_obs.Json.String source) -> source
              | _ -> Alcotest.fail ("event without source: " ^ line)))
          lines
        |> List.sort_uniq compare
      in
      List.iter
        (fun source ->
          check (source ^ " events present") true (List.mem source sources))
        [ "engine"; "sim"; "mapper"; "metrics" ])

let () =
  Alcotest.run "vqc_golden"
    [
      ( "golden",
        List.map
          (fun id -> Alcotest.test_case id `Slow (test_golden id))
          golden_ids );
      ( "harness",
        [
          Alcotest.test_case "1-char perturbation detected" `Quick
            test_detects_one_char_perturbation;
          Alcotest.test_case "equal inputs diff to nothing" `Quick
            test_diff_of_equal_is_none;
        ] );
      ( "no-perturbation",
        [
          Alcotest.test_case "trace sink leaves stdout untouched" `Slow
            test_trace_sink_does_not_perturb_output;
          Alcotest.test_case "worker count leaves stdout untouched" `Slow
            test_jobs_do_not_perturb_output;
          Alcotest.test_case "cli fan-out: bytes + valid JSONL" `Slow
            test_cli_fanout_trace_and_bytes;
        ] );
    ]
