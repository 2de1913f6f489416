(* vqc-check: the static-analysis front door.

     vqc-check lint FILE...     lint OpenQASM sources (VQC000-VQC005)
     vqc-check verify [IDS]     compile catalog workloads and verify the
                                plans (translation validation, VQC101+)
     vqc-check self [--root D]  repository source analysis (VQC2xx)
     vqc-check calib            calibration-data lint over every model
                                profile and its history (VQC12x)

   Exit status 0 when no error-severity diagnostic was produced (lint
   warnings and infos do not fail the run), 1 otherwise.  --json renders
   diagnostics with the deterministic JSON encoding shared with
   vqc-serve's "invalid" responses.  self and calib additionally take
   --sarif FILE (SARIF 2.1.0 log, '-' for stdout) and --baseline FILE
   (fail only on findings absent from the committed baseline;
   --update-baseline rewrites the file to accept the current set). *)

module Diagnostic = Vqc_diag.Diagnostic
module Lint = Vqc_check.Lint
module Verify = Vqc_check.Verify
module Rules = Vqc_check.Rules
module Calib_lint = Vqc_check.Calib_lint
module Sarif = Vqc_check.Sarif
module Baseline = Vqc_check.Baseline
module Calibration_model = Vqc_device.Calibration_model
module Circuit = Vqc_circuit.Circuit
module Catalog = Vqc_workloads.Catalog
module Compiler = Vqc_mapper.Compiler
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Epoch = Vqc_service.Epoch
module Policies = Vqc_service.Policies
module Json = Vqc_obs.Json

open Cmdliner

let json_term =
  let doc =
    "Render diagnostics as deterministic JSON (the encoding of \
     vqc-serve's 'invalid' responses) instead of one-line text."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let print_text ~prefix diagnostics =
  List.iter
    (fun d -> print_endline (prefix ^ Diagnostic.to_string d))
    diagnostics

let status diagnostics = if Diagnostic.has_errors diagnostics then 1 else 0

(* ---- lint ----------------------------------------------------------- *)

let read_source path =
  if path = "-" then Ok (In_channel.input_all stdin)
  else
    match In_channel.with_open_text path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error message -> Error message

let run_lint json files =
  let files = if files = [] then [ "-" ] else files in
  let codes =
    List.map
      (fun path ->
        match read_source path with
        | Error message ->
          prerr_endline ("vqc-check: " ^ message);
          1
        | Ok text ->
          let diagnostics = Lint.qasm text in
          if json then print_endline (Diagnostic.render_list diagnostics)
          else begin
            let prefix = if path = "-" then "" else path ^ ": " in
            print_text ~prefix diagnostics
          end;
          status diagnostics)
      files
  in
  List.fold_left max 0 codes

let lint_cmd =
  let doc = "lint OpenQASM 2.0 sources" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses each $(i,FILE) (or stdin for '-') as OpenQASM 2.0 and \
         reports structured diagnostics: positioned parse errors \
         (VQC000, VQC001, VQC004), gates after measurement (VQC002), \
         unused qubits (VQC003) and trivially cancellable adjacent \
         pairs (VQC005).  With --json, one JSON array is printed per \
         input file.";
    ]
  in
  let files =
    let doc = "OpenQASM files to lint ('-' or nothing reads stdin)." in
    Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "lint" ~doc ~man) Term.(const run_lint $ json_term $ files)

(* ---- verify --------------------------------------------------------- *)

let verify_result ~json ~workload ~policy diagnostics =
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.String workload);
              ("policy", Json.String policy);
              ( "status",
                Json.String
                  (if Diagnostic.has_errors diagnostics then "invalid"
                   else "ok") );
              ( "diagnostics",
                Json.List (List.map Diagnostic.to_json diagnostics) );
            ]))
  else if Diagnostic.has_errors diagnostics then begin
    Printf.printf "%s under %s: INVALID\n" workload policy;
    print_text ~prefix:"  " diagnostics
  end
  else Printf.printf "%s under %s: ok\n" workload policy

let run_verify json seed policies workloads =
  let entries =
    match workloads with
    | [] -> Ok Catalog.all
    | names ->
      let unknown =
        List.filter
          (fun name -> not (List.mem name (Catalog.names ())))
          names
      in
      if unknown <> [] then
        Error
          (Printf.sprintf "unknown workload(s) %s; available: %s"
             (String.concat ", " unknown)
             (String.concat ", " (Catalog.names ())))
      else Ok (List.map Catalog.find names)
  in
  let policy_entries =
    match policies with
    | [] -> Ok Policies.all
    | labels ->
      let resolved = List.map (fun l -> (l, Policies.find l)) labels in
      (match List.filter (fun (_, e) -> e = None) resolved with
      | [] ->
        Ok
          (List.map
             (function _, Some e -> e | _, None -> assert false)
             resolved)
      | missing ->
        Error
          (Printf.sprintf "unknown policy(ies) %s; available: %s"
             (String.concat ", " (List.map fst missing))
             (String.concat ", " (Policies.names ()))))
  in
  match (entries, policy_entries) with
  | Error message, _ | _, Error message ->
    prerr_endline ("vqc-check: " ^ message);
    2
  | Ok entries, Ok policy_entries ->
    let history =
      History.generate ~days:1 ~seed ~coupling:Topologies.ibm_q20_tokyo 20
    in
    let epochs =
      Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo history
    in
    let device = Epoch.device epochs 0 in
    let codes =
      List.concat_map
        (fun (entry : Catalog.entry) ->
          List.map
            (fun (p : Policies.entry) ->
              match
                Compiler.compile device p.Policies.policy entry.Catalog.circuit
              with
              | plan ->
                let diagnostics =
                  Verify.compiled device entry.Catalog.circuit plan
                in
                verify_result ~json ~workload:entry.Catalog.name
                  ~policy:p.Policies.label diagnostics;
                status diagnostics
              | exception Invalid_argument message ->
                Printf.eprintf "vqc-check: %s under %s: %s\n"
                  entry.Catalog.name p.Policies.label message;
                1)
            policy_entries)
        entries
    in
    List.fold_left max 0 codes

let verify_cmd =
  let doc = "compile catalog workloads and statically verify the plans" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles every requested catalog workload under every requested \
         policy against the synthetic Q20 calibration (--seed), then \
         replays each physical circuit against its source program: \
         coupling legality (VQC101), dependency order (VQC102), \
         measurement mapping (VQC103), SWAP accounting (VQC104), final \
         layout (VQC105), completeness (VQC106) and calibration sanity \
         (VQC107).  An empty report line means the plan is proven \
         faithful.";
    ]
  in
  let seed =
    let doc = "Seed for the synthetic calibration model." in
    Arg.(value & opt int 2 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let policies =
    let doc =
      "Policy label to verify under (repeatable; default: every \
       registered policy)."
    in
    Arg.(value & opt_all string [] & info [ "policy" ] ~docv:"LABEL" ~doc)
  in
  let workloads =
    let doc = "Catalog workloads (default: the whole catalog)." in
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  Cmd.v
    (Cmd.info "verify" ~doc ~man)
    Term.(const run_verify $ json_term $ seed $ policies $ workloads)

(* ---- shared reporting for self / calib ------------------------------ *)

let sarif_term =
  let doc =
    "Also emit the findings (baseline not applied) as a SARIF 2.1.0 log \
     to $(docv); '-' writes the log to stdout and suppresses the text \
     report."
  in
  Arg.(
    value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let baseline_term =
  let doc =
    "Committed baseline file: findings whose fingerprints it lists are \
     suppressed, so the exit status reflects only new findings."
  in
  Arg.(
    value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let update_term =
  let doc =
    "Rewrite the --baseline file to accept exactly the current findings, \
     then exit 0."
  in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

let write_file path contents =
  Out_channel.with_open_text path (fun channel ->
      Out_channel.output_string channel contents)

(* Render findings (text or JSON or SARIF-to-stdout), apply the
   baseline, honor --update-baseline; returns the exit code. *)
let report ~json ~sarif ~baseline ~update ~clean diagnostics =
  let sarif_stdout = sarif = Some "-" in
  (match sarif with
  | Some "-" -> print_endline (Sarif.render diagnostics)
  | Some path -> write_file path (Sarif.render diagnostics ^ "\n")
  | None -> ());
  match (baseline, update) with
  | Some path, true ->
    write_file path (Baseline.render diagnostics);
    if not sarif_stdout then
      Printf.printf "baseline updated: %s now accepts %d finding(s)\n" path
        (List.length diagnostics);
    0
  | None, true ->
    prerr_endline "vqc-check: --update-baseline needs --baseline FILE";
    2
  | baseline, false ->
    let accepted =
      match baseline with
      | None -> Ok Baseline.empty
      | Some path -> Baseline.load path
    in
    (match accepted with
    | Error message ->
      prerr_endline ("vqc-check: baseline: " ^ message);
      2
    | Ok accepted ->
      let fresh, suppressed = Baseline.partition accepted diagnostics in
      if sarif_stdout then status fresh
      else begin
        if json then print_endline (Diagnostic.render_list fresh)
        else begin
          print_text ~prefix:"" fresh;
          if suppressed <> [] then
            Printf.printf "%d baselined finding(s) suppressed\n"
              (List.length suppressed);
          if fresh = [] then print_endline clean
        end;
        status fresh
      end)

(* ---- self ----------------------------------------------------------- *)

let run_self json root sarif baseline update =
  let diagnostics = Rules.scan_tree ~root in
  report ~json ~sarif ~baseline ~update ~clean:"self-lint: clean" diagnostics

let self_cmd =
  let doc = "source analysis over the repository tree" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Tokenizes every .ml file under lib/, bin/, examples/, test/ and \
         bench/ (comment- and string-literal-aware) and runs the source \
         rules: determinism hygiene (VQC201: environment-seeded RNG, \
         wall-clock reads outside the allow-listed timing sites), stdout \
         hygiene in library code (VQC202), and the domain-safety \
         discipline the concurrent server depends on (VQC210 unguarded \
         top-level mutable state, VQC211 lock/unlock shape, VQC212 \
         nested lock order).";
    ]
  in
  let root =
    let doc = "Repository root to scan." in
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)
  in
  Cmd.v (Cmd.info "self" ~doc ~man)
    Term.(
      const run_self $ json_term $ root $ sarif_term $ baseline_term
      $ update_term)

(* ---- calib ---------------------------------------------------------- *)

let run_calib json seed days profiles sarif baseline update =
  let selected =
    match profiles with
    | [] -> Ok Calibration_model.profiles
    | names ->
      let unknown =
        List.filter
          (fun name -> Calibration_model.find_profile name = None)
          names
      in
      if unknown <> [] then
        Error
          (Printf.sprintf "unknown profile(s) %s; available: %s"
             (String.concat ", " unknown)
             (String.concat ", "
                (List.map
                   (fun p -> p.Calibration_model.profile_name)
                   Calibration_model.profiles)))
      else
        Ok
          (List.filter_map Calibration_model.find_profile names)
  in
  match selected with
  | Error message ->
    prerr_endline ("vqc-check: " ^ message);
    2
  | Ok selected ->
    let diagnostics =
      List.concat_map
        (fun (p : Calibration_model.profile) ->
          let history =
            History.generate ~days ~params:p.Calibration_model.profile_params
              ~seed ~coupling:p.Calibration_model.coupling
              p.Calibration_model.qubits
          in
          Calib_lint.history ~name:p.Calibration_model.profile_name history)
        selected
      |> List.sort Diagnostic.compare
    in
    report ~json ~sarif ~baseline ~update ~clean:"calibration lint: clean"
      diagnostics

let calib_cmd =
  let doc = "lint every calibration profile the device model produces" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates the full multi-day calibration history of every \
         registered device profile (--seed, --days) and lints the data \
         itself: error-rate ranges (VQC120), coherence ranges (VQC121), \
         the T2 <= 2*T1 bound (VQC122), dead qubits (VQC123), \
         coupling/calibration asymmetry (VQC124) and cross-day stuck \
         sensors (VQC125).  The policies are only as good as this data \
         — lint it like source.";
    ]
  in
  let seed =
    let doc = "Seed for the synthetic calibration model." in
    Arg.(value & opt int 2 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let days =
    let doc = "History length in days (the paper's horizon is 52)." in
    Arg.(value & opt int 52 & info [ "days" ] ~docv:"N" ~doc)
  in
  let profiles =
    let doc = "Profile to lint (repeatable; default: every profile)." in
    Arg.(value & opt_all string [] & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  Cmd.v (Cmd.info "calib" ~doc ~man)
    Term.(
      const run_calib $ json_term $ seed $ days $ profiles $ sarif_term
      $ baseline_term $ update_term)

let cmd =
  let doc = "static analysis for variability-aware compilation artifacts" in
  let info = Cmd.info "vqc-check" ~doc in
  Cmd.group info [ lint_cmd; verify_cmd; self_cmd; calib_cmd ]

let () = exit (Cmd.eval' cmd)
