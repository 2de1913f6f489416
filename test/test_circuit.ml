(* Tests for the circuit substrate: gates, circuits, layering and the
   OpenQASM subset. *)

module Gate = Vqc_circuit.Gate
module Circuit = Vqc_circuit.Circuit
module Layers = Vqc_circuit.Layers
module Qasm = Vqc_circuit.Qasm

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cx c t = Gate.Cnot { control = c; target = t }
let h q = Gate.One_qubit (Gate.H, q)
let meas q = Gate.Measure { qubit = q; cbit = q }

(* ---- Gate ---------------------------------------------------------- *)

let test_gate_qubits () =
  Alcotest.(check (list int)) "1q" [ 3 ] (Gate.qubits (h 3));
  Alcotest.(check (list int)) "cx" [ 1; 2 ] (Gate.qubits (cx 1 2));
  Alcotest.(check (list int)) "swap" [ 4; 0 ] (Gate.qubits (Gate.Swap (4, 0)));
  Alcotest.(check (list int)) "measure" [ 2 ] (Gate.qubits (meas 2));
  Alcotest.(check (list int)) "barrier" [] (Gate.qubits (Gate.Barrier []))

let test_gate_classifiers () =
  check "cx is 2q" true (Gate.is_two_qubit (cx 0 1));
  check "swap is 2q" true (Gate.is_two_qubit (Gate.Swap (0, 1)));
  check "h is not 2q" false (Gate.is_two_qubit (h 0));
  check "measure not unitary" false (Gate.is_unitary (meas 0));
  check "barrier not unitary" false (Gate.is_unitary (Gate.Barrier []));
  check "rz unitary" true (Gate.is_unitary (Gate.One_qubit (Gate.Rz 0.1, 0)))

let test_gate_relabel () =
  let shifted = Gate.relabel (fun q -> q + 10) (cx 1 2) in
  check "relabeled" true (Gate.equal shifted (cx 11 12));
  let measured = Gate.relabel (fun q -> q + 1) (meas 0) in
  check "cbit untouched" true
    (Gate.equal measured (Gate.Measure { qubit = 1; cbit = 0 }));
  check "collision raises" true
    (try
       let _ = Gate.relabel (fun _ -> 0) (cx 1 2) in
       false
     with Invalid_argument _ -> true)

let test_gate_equal_distinguishes_angles () =
  check "same angle" true
    (Gate.equal (Gate.One_qubit (Gate.Rz 0.5, 0)) (Gate.One_qubit (Gate.Rz 0.5, 0)));
  check "different angle" false
    (Gate.equal (Gate.One_qubit (Gate.Rz 0.5, 0)) (Gate.One_qubit (Gate.Rz 0.6, 0)));
  check "different kind" false
    (Gate.equal (Gate.One_qubit (Gate.Rz 0.5, 0)) (Gate.One_qubit (Gate.Rx 0.5, 0)))

(* ---- Circuit ------------------------------------------------------- *)

let ghz3 = Circuit.of_gates 3 [ h 0; cx 0 1; cx 1 2; meas 0; meas 1; meas 2 ]

let test_circuit_sizes () =
  check_int "qubits" 3 (Circuit.num_qubits ghz3);
  check_int "cbits default to qubits" 3 (Circuit.num_cbits ghz3);
  check_int "length" 6 (Circuit.length ghz3)

let test_circuit_validation () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check "qubit range" true (raises (fun () -> Circuit.of_gates 2 [ h 5 ]));
  check "cbit range" true
    (raises (fun () ->
         Circuit.of_gates ~cbits:1 2 [ Gate.Measure { qubit = 0; cbit = 1 } ]));
  check "cx collision" true (raises (fun () -> Circuit.of_gates 2 [ cx 1 1 ]));
  check "negative size" true (raises (fun () -> Circuit.create (-1)))

let test_circuit_concat_and_relabel () =
  let a = Circuit.of_gates 2 [ h 0 ] in
  let b = Circuit.of_gates 2 [ cx 0 1 ] in
  let joined = Circuit.concat a b in
  check_int "joined length" 2 (Circuit.length joined);
  let swapped = Circuit.relabel (fun q -> 1 - q) joined in
  check "relabel flips" true
    (List.nth (Circuit.gates swapped) 1 = cx 1 0);
  check "size mismatch raises" true
    (try
       let _ = Circuit.concat a (Circuit.create 3) in
       false
     with Invalid_argument _ -> true)

let test_used_qubits () =
  let c = Circuit.of_gates 5 [ h 1; cx 3 1 ] in
  Alcotest.(check (list int)) "used" [ 1; 3 ] (Circuit.used_qubits c)

let test_stats () =
  let c =
    Circuit.of_gates 3
      [ h 0; h 1; cx 0 1; Gate.Swap (1, 2); meas 0; Gate.Barrier [] ]
  in
  let s = Circuit.stats c in
  check_int "total excludes barrier" 5 s.Circuit.total_gates;
  check_int "1q" 2 s.Circuit.one_qubit_gates;
  check_int "2q" 2 s.Circuit.two_qubit_gates;
  check_int "cx" 1 s.Circuit.cnot_gates;
  check_int "swap" 1 s.Circuit.swap_gates;
  check_int "measures" 1 s.Circuit.measurements;
  check_int "qubits used" 3 s.Circuit.qubits_used

let test_depth () =
  (* h0 and h1 parallel; cx 0 1 after both; cx 1 2 after that *)
  let c = Circuit.of_gates 3 [ h 0; h 1; cx 0 1; cx 1 2 ] in
  check_int "depth" 3 (Circuit.stats c).Circuit.depth;
  let empty = Circuit.create 3 in
  check_int "empty depth" 0 (Circuit.stats empty).Circuit.depth

let test_barrier_synchronizes_depth () =
  (* without barrier, h2 is parallel with h0; with barrier it waits *)
  let without = Circuit.of_gates 3 [ h 0; h 2 ] in
  check_int "parallel" 1 (Circuit.stats without).Circuit.depth;
  let with_barrier = Circuit.of_gates 3 [ h 0; Gate.Barrier []; h 2 ] in
  check_int "barrier serializes" 2 (Circuit.stats with_barrier).Circuit.depth

let test_interaction_counts () =
  let c = Circuit.of_gates 3 [ cx 0 1; cx 1 0; cx 1 2 ] in
  Alcotest.(check (list (pair (pair int int) int)))
    "unordered pair counts"
    [ ((0, 1), 2); ((1, 2), 1) ]
    (Circuit.interaction_counts c)

let test_qubit_activity () =
  let c = Circuit.of_gates 3 [ cx 0 1; cx 1 2; h 0 ] in
  Alcotest.(check (array int)) "activity" [| 1; 2; 1 |] (Circuit.qubit_activity c)

let test_decompose_swaps () =
  let c = Circuit.of_gates 2 [ Gate.Swap (0, 1) ] in
  let expanded = Circuit.decompose_swaps c in
  Alcotest.(check (list bool))
    "three cnots"
    [ true; true; true ]
    (List.map (function Gate.Cnot _ -> true | _ -> false) (Circuit.gates expanded));
  check_int "3 gates" 3 (Circuit.length expanded)

(* ---- Layers -------------------------------------------------------- *)

let test_layer_partition () =
  let c = Circuit.of_gates 4 [ cx 0 1; cx 2 3; cx 1 2 ] in
  let layers = Layers.partition c in
  check_int "two layers" 2 (List.length layers);
  check_int "first layer parallel" 2 (List.length (List.hd layers))

let test_layers_disjoint_and_ordered () =
  let c =
    Circuit.of_gates 4 [ h 0; cx 0 1; h 2; cx 2 3; cx 1 2; meas 0; meas 1 ]
  in
  let layers = Layers.partition c in
  List.iter
    (fun layer ->
      let qubits = List.concat_map Gate.qubits layer in
      check "disjoint qubits per layer" true
        (List.length qubits = List.length (List.sort_uniq compare qubits)))
    layers;
  (* flattening layers preserves per-qubit gate order *)
  let flat = List.concat layers in
  let projection gates q =
    List.filter (fun g -> List.mem q (Gate.qubits g)) gates
  in
  for q = 0 to 3 do
    check "projection preserved" true
      (List.for_all2 Gate.equal
         (projection (Circuit.gates c) q)
         (projection flat q))
  done

let test_two_qubit_pairs () =
  let layer = [ h 0; cx 1 2; Gate.Swap (3, 4) ] in
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 2); (3, 4) ]
    (Layers.two_qubit_pairs layer)

let test_layer_count_matches_depth () =
  let c = Circuit.of_gates 3 [ h 0; cx 0 1; cx 1 2; meas 2 ] in
  check_int "count = depth" (Circuit.stats c).Circuit.depth (Layers.count c)

(* ---- Dag ------------------------------------------------------------ *)

module Dag = Vqc_circuit.Dag

let test_dag_structure () =
  (* h0; cx01; h1; cx12 *)
  let c = Circuit.of_gates 3 [ h 0; cx 0 1; h 1; cx 1 2 ] in
  let d = Dag.build c in
  check_int "4 gates" 4 (Dag.gate_count d);
  Alcotest.(check (list int)) "front" [ 0 ] (Dag.front d);
  Alcotest.(check (list int)) "h0 enables cx01" [ 1 ] (Dag.successors d 0);
  Alcotest.(check (list int)) "cx01 enables h1" [ 2 ] (Dag.successors d 1);
  Alcotest.(check (list int)) "cx12 depends on h1" [ 2 ] (Dag.predecessors d 3);
  check_int "no predecessors at front" 0 (Dag.predecessor_count d 0)

let test_dag_parallel_fronts () =
  let c = Circuit.of_gates 4 [ cx 0 1; cx 2 3; cx 1 2 ] in
  let d = Dag.build c in
  Alcotest.(check (list int)) "two independent fronts" [ 0; 1 ] (Dag.front d);
  Alcotest.(check (array int)) "asap levels" [| 0; 0; 1 |] (Dag.asap_levels d);
  check_int "critical path" 2 (Dag.critical_path_length d)

let test_dag_matches_layers_depth () =
  let c = (Vqc_workloads.Catalog.find "qft-12").Vqc_workloads.Catalog.circuit in
  let d = Dag.build c in
  check_int "critical path equals layer count" (Layers.count c)
    (Dag.critical_path_length d)

let test_dag_barrier_fences () =
  let c = Circuit.of_gates 2 [ h 0; Gate.Barrier []; h 1 ] in
  let d = Dag.build c in
  Alcotest.(check (list int)) "h1 waits on the barrier" [ 1 ]
    (Dag.predecessors d 2);
  check_int "empty dag" 0 (Dag.critical_path_length (Dag.build (Circuit.create 2)))

(* ---- Qasm ---------------------------------------------------------- *)

let test_qasm_roundtrip_ghz () =
  let text = Qasm.to_string ghz3 in
  match Qasm.of_string text with
  | Ok parsed -> check "roundtrip" true (Circuit.equal ghz3 parsed)
  | Error m -> Alcotest.fail m

let test_qasm_roundtrip_angles () =
  let c =
    Circuit.of_gates 2
      [
        Gate.One_qubit (Gate.Rz 0.12345, 0);
        Gate.One_qubit (Gate.Rx (-1.5), 1);
        Gate.One_qubit (Gate.U1 (Float.pi /. 8.0), 0);
        Gate.One_qubit (Gate.Tdg, 1);
        Gate.Swap (0, 1);
      ]
  in
  match Qasm.of_string (Qasm.to_string c) with
  | Ok parsed -> check "roundtrip with angles" true (Circuit.equal c parsed)
  | Error m -> Alcotest.fail m

let test_qasm_parse_standard_program () =
  let program =
    {|OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
barrier q;
measure q[0] -> c[0];
|}
  in
  match Qasm.of_string program with
  | Ok c ->
    check_int "3 qubits" 3 (Circuit.num_qubits c);
    check_int "5 gates" 5 (Circuit.length c);
    (match List.nth (Circuit.gates c) 2 with
    | Gate.One_qubit (Gate.Rz a, 2) ->
      Alcotest.(check (float 1e-12)) "angle" (Float.pi /. 2.0) a
    | g -> Alcotest.failf "unexpected gate %s" (Gate.to_string g))
  | Error m -> Alcotest.fail m

let test_qasm_whole_register_forms () =
  let program =
    "qreg q[3]; creg c[3]; h q; measure q -> c;"
  in
  match Qasm.of_string program with
  | Ok c ->
    check_int "3 h + 3 measures" 6 (Circuit.length c)
  | Error m -> Alcotest.fail m

let test_qasm_multiple_registers_flatten () =
  let program = "qreg a[2]; qreg b[2]; creg c[4]; cx a[1],b[0];" in
  match Qasm.of_string program with
  | Ok c ->
    check_int "4 qubits" 4 (Circuit.num_qubits c);
    check "flat indices" true
      (List.hd (Circuit.gates c) = cx 1 2)
  | Error m -> Alcotest.fail m

let test_qasm_angle_arithmetic () =
  List.iter
    (fun (expr, expected) ->
      let program = Printf.sprintf "qreg q[1]; rz(%s) q[0];" expr in
      match Qasm.of_string program with
      | Ok c -> begin
        match Circuit.gates c with
        | [ Gate.One_qubit (Gate.Rz a, 0) ] ->
          Alcotest.(check (float 1e-9)) expr expected a
        | _ -> Alcotest.failf "bad parse of %s" expr
      end
      | Error m -> Alcotest.fail m)
    [
      ("1.5", 1.5);
      ("pi", Float.pi);
      ("-pi/4", -.Float.pi /. 4.0);
      ("2*pi/3", 2.0 *. Float.pi /. 3.0);
      ("(1+2)*3", 9.0);
      ("1e-3", 1e-3);
    ]

let test_qasm_errors () =
  let bad text =
    match Qasm.of_string text with Ok _ -> false | Error _ -> true
  in
  check "unknown gate" true (bad "qreg q[1]; frob q[0];");
  check "range" true (bad "qreg q[2]; h q[5];");
  check "unknown register" true (bad "qreg q[2]; h r[0];");
  check "measure arrow" true (bad "qreg q[1]; creg c[1]; measure q[0];");
  check "rz without angle" true (bad "qreg q[1]; rz q[0];")

let gen_circuit =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let gate =
      let* kind = int_bound 3 in
      let* q = int_bound (n - 1) in
      match kind with
      | 0 -> return (h q)
      | 1 ->
        let* angle = float_range (-3.0) 3.0 in
        return (Gate.One_qubit (Gate.Rz angle, q))
      | 2 ->
        let* other = int_bound (n - 2) in
        let t = if other >= q then other + 1 else other in
        return (cx q t)
      | _ -> return (meas q)
    in
    let* gates = list_size (int_bound 30) gate in
    return (Circuit.of_gates n gates))

let prop_qasm_roundtrip =
  QCheck2.Test.make ~name:"qasm roundtrips arbitrary circuits" ~count:200
    gen_circuit (fun c ->
      match Qasm.of_string (Qasm.to_string c) with
      | Ok parsed -> Circuit.equal c parsed
      | Error _ -> false)

let test_qasm_comment_after_slash () =
  (* the first // on a line starts the comment, even after a '/' *)
  let program =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
     rz(pi/2) q[0]; // note\nh q[1];\n"
  in
  match Qasm.of_string program with
  | Ok c ->
    check "rz then h" true
      (Circuit.equal c
         (Circuit.of_gates 2
            [ Gate.One_qubit (Gate.Rz (Float.pi /. 2.0), 0); h 1 ]))
  | Error m -> Alcotest.fail m

let test_qasm_bad_angle_number () =
  (* a number lexeme float_of_string rejects is a located parse error,
     not an exception out of the parser *)
  match Qasm.of_string_diag "qreg q[1];\nrz(2*1e) q[0];" with
  | Error d ->
    Alcotest.(check string) "code" Vqc_diag.Diagnostic.code_parse d.code;
    check "line 2" true (d.location = Vqc_diag.Diagnostic.Line 2);
    Alcotest.(check string) "message"
      {|angle: bad number "1e" in "2*1e"|} d.message
  | Ok _ -> Alcotest.fail "accepted a bad angle"

(* A statement's line is the line of its first character that is not a
   space, tab, CR or LF; a form feed counts. *)
let test_qasm_error_lines () =
  List.iter
    (fun (text, line) ->
      match Qasm.of_string_diag text with
      | Error d ->
        check (String.escaped text) true
          (d.Vqc_diag.Diagnostic.location = Vqc_diag.Diagnostic.Line line)
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      ("qreg q[1];\r\nfrob q[0];", 2);
      ("qreg q[1]; \r\r\n\t\n frob q[0];", 3);
      ("qreg q[1];\012\nfrob q[0];", 1);
      ("qreg q[1]; // c; d\n// e\nfrob q[0]", 3);
      ("qreg q[1]; h // c\n  q[9];", 1);
    ]

(* A qubit bound refuses the register that takes the declared total past
   it, located at that register's line; the check compares by
   difference, so a size near [max_int] cannot wrap around it. *)
let test_qasm_max_qubits () =
  let past size =
    Printf.sprintf "register q[%d] takes the circuit past 20 qubits" size
  in
  List.iter
    (fun (text, expected) ->
      let name = String.escaped text in
      match (Qasm.of_string_diag ~max_qubits:20 text, expected) with
      | Ok c, Ok qubits -> check_int name qubits (Circuit.num_qubits c)
      | Error d, Error (line, message) ->
        Alcotest.(check string) name Vqc_diag.Diagnostic.code_parse d.code;
        check name true (d.location = Vqc_diag.Diagnostic.Line line);
        Alcotest.(check string) name message d.message
      | Ok _, Error _ -> Alcotest.failf "accepted %S" text
      | Error d, Ok _ -> Alcotest.failf "refused %S: %s" text d.message)
    [
      ("qreg q[20];\nh q;", Ok 20);
      ("qreg a[12];\nqreg b[8];\nh a;", Ok 20);
      ("qreg q[21];\nh q;", Error (1, past 21));
      ( "qreg a[12];\nqreg b[9];\nh a;",
        Error (2, "register b[9] takes the circuit past 20 qubits") );
      ("qreg q[4611686018427387903];", Error (1, past max_int));
      ("qreg a[1];\nqreg q[4611686018427387903];", Error (2, past max_int));
    ];
  check "unbounded by default" true
    (Result.is_ok (Qasm.of_string "qreg q[21];\nh q;"))

(* ---- the rendering and the parser against their oracles ------------ *)

let special_angles =
  [
    0.0; -0.0; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
    4.9e-324; -4.9e-324; 2.2250738585072009e-308; 1e300; -1e300; 1e-300;
    -1e-300; Float.max_float; Float.min_float;
  ]
  @ List.init 16 (fun k -> Float.pi /. (2.0 ** float_of_int k))

let gen_circuit_of ~angle =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* cbits = int_range 1 12 in
    let qubit = int_bound (n - 1) in
    let pair =
      let* a = qubit in
      let* d = int_range 1 (n - 1) in
      return (a, (a + d) mod n)
    in
    let rotation =
      oneofl
        [
          (fun a -> Gate.Rx a); (fun a -> Gate.Ry a); (fun a -> Gate.Rz a);
          (fun a -> Gate.U1 a);
        ]
    in
    let gate =
      oneof
        [
          map2
            (fun kind q -> Gate.One_qubit (kind, q))
            (oneofl Gate.[ H; X; Y; Z; S; Sdg; T; Tdg ])
            qubit;
          map3 (fun r a q -> Gate.One_qubit (r a, q)) rotation angle qubit;
          map (fun (control, target) -> Gate.Cnot { control; target }) pair;
          map (fun (a, b) -> Gate.Swap (a, b)) pair;
          map2
            (fun q cbit -> Gate.Measure { qubit = q; cbit })
            qubit (int_bound (cbits - 1));
          return (Gate.Barrier []);
          map (fun qs -> Gate.Barrier qs) (list_size (int_range 1 6) qubit);
        ]
    in
    let* gates = list_size (int_bound 60) gate in
    return (Circuit.of_gates ~cbits n gates))

let prop_rendering_matches_printf =
  QCheck2.Test.make ~name:"rendering and fingerprint match the Printf oracle"
    ~count:300 ~print:Qasm_oracle.to_string
    (gen_circuit_of
       ~angle:
         QCheck2.Gen.(
           oneof [ oneofl special_angles; float; float_range (-7.0) 7.0 ]))
    (fun c ->
      let reference = Qasm_oracle.to_string c in
      Qasm.to_string c = reference
      && Vqc_service.Fingerprint.circuit c
         = Vqc_service.Fingerprint.of_string reference)

let handwritten_programs =
  [
    {|OPENQASM 2.0;
include "qelib1.inc";
// a comment; with a semicolon
qreg q[3];
qreg r[2];
creg c[5];
h q;
cx q[0],r[1];
CX q, q;
rz(-pi/4 + 2*(1.5e-1)) q[2]; // trailing
u1( PI / 8 ) r[0];
measure q -> c;
measure r[1] -> c[4];
barrier q[0], r;
swap r[0],q[1];
|};
    "qreg a[2]; qreg b[2]; creg c[4]; cx a[1],b[0]; cx a,b; barrier a,b; \
     rx(.5e+1) b[1];";
    "qreg q[2];
	creg c[2];
h q[0] ;
measure q[0]->c[1];

s q[1];";
  ]

let edit_tokens =
  [
    ";"; "//"; "// x;\n"; "\n"; " "; "\t"; "\r"; "\012"; "("; ")"; "[";
    "]"; ","; "->"; "pi"; "e"; "-"; "+"; "*"; "/"; "."; "0"; "9"; "q";
    "c"; "h"; "cx"; "swap"; "barrier"; "measure"; "qreg r[2];";
    "creg d[1];"; "1e"; "/0";
  ]

(* Start offsets of [pattern] in [text]. *)
let occurrences text pattern =
  let n = String.length pattern in
  let rec scan from acc =
    if from + n > String.length text then List.rev acc
    else if String.sub text from n = pattern then scan (from + 1) (from :: acc)
    else scan (from + 1) acc
  in
  scan 0 []

(* [text] with [length] bytes replaced from its [i]-th (mod the count)
   occurrence of [pattern], [pattern] included. *)
let splice text pattern i ~length replacement =
  match occurrences text pattern with
  | [] -> text
  | found ->
    let at = List.nth found (i mod List.length found) in
    let stop = at + length (String.sub text at (String.length text - at)) in
    String.sub text 0 at ^ replacement
    ^ String.sub text stop (String.length text - stop)

let digits_after_bracket rest =
  let rec go j =
    if j < String.length rest && rest.[j] >= '0' && rest.[j] <= '9' then
      go (j + 1)
    else j
  in
  go 1

(* Edits stay few, and an index edit replaces the number after a '['
   rather than growing it: a register of 10^6 qubits would make both
   parsers expand each whole-register operand into that many gates.
   Overflowing numbers are pinned by [test_qasm_edge_cases] instead. *)
let gen_edit text =
  QCheck2.Gen.(
    let n = String.length text in
    if n = 0 then oneofl edit_tokens
    else
      let* i = int_bound (n - 1) in
      let* kind = int_bound 5 in
      let before = String.sub text 0 i in
      let after k = String.sub text k (n - k) in
      match kind with
      | 0 -> return (before ^ after (i + 1))
      | 1 -> return (before ^ String.make 1 text.[i] ^ after i)
      | 2 when i + 1 < n ->
        return
          (before ^ String.make 1 text.[i + 1] ^ String.make 1 text.[i]
          ^ after (i + 2))
      | 2 | 3 ->
        map (fun token -> before ^ token ^ after i) (oneofl edit_tokens)
      | 4 ->
        map
          (splice text "q[" i ~length:(fun _ -> 2))
          (oneofl [ "r["; "c["; "qq["; "d[" ])
      | _ ->
        map
          (fun index ->
            splice text "[" i ~length:digits_after_bracket ("[" ^ index))
          (oneofl [ "99"; "-1"; "1_"; "0x1"; " 1 "; "+"; "x"; "" ]))

let gen_qasm_text =
  QCheck2.Gen.(
    let* base =
      oneof
        [
          map Qasm_oracle.to_string
            (gen_circuit_of
               ~angle:(oneofl (List.filter Float.is_finite special_angles)));
          oneofl handwritten_programs;
        ]
    in
    let* edits = int_bound 3 in
    let rec apply k text =
      if k = 0 then return text else gen_edit text >>= apply (k - 1)
    in
    apply edits base)

(* Both parsers give equal circuits or the same diagnostic. *)
let parsers_agree text =
  match (Qasm_oracle.of_string_diag text, Qasm.of_string_diag text) with
  | Ok expected, Ok got -> Circuit.equal expected got
  | Error expected, Error got -> expected = got
  | Ok _, Error _ | Error _, Ok _ -> false
  | exception Failure _ -> (
    (* the oracle's float_of_string raises on a malformed number *)
    match Qasm.of_string_diag text with
    | Error
        {
          Vqc_diag.Diagnostic.location = Vqc_diag.Diagnostic.Line _;
          message;
          _;
        } ->
      String.starts_with ~prefix:"angle: bad number" message
    | Error _ | Ok _ -> false)

let test_qasm_edge_cases () =
  List.iter
    (fun text -> check (String.escaped text) true (parsers_agree text))
    [
      "qreg q[4611686018427387904];";
      "qreg q[4611686018427387903]; creg c[0];";
      "qreg q[2]; h q[4611686018427387904];";
      "qreg q[2]; h q[99999999999999999999];";
      "qreg q[2]; h q[0x1]; h q[1_]; h q[ 1 ]; h q[+1];";
      "qreg q[2]; h q[-1];";
      "qreg q]2[;";
      "qreg q[2]; h q]0[;";
      "qreg q[2]; rz)1( q[0];";
      "qreg q[2]; h q[ ];";
      "qreg [2]; h [1]; h ;";
      "qreg q[1]; rz(1e) q[0];";
    ]

let prop_parser_matches_oracle =
  QCheck2.Test.make ~name:"one-pass parser matches the oracle parser"
    ~count:2000 ~print:(Printf.sprintf "%S") gen_qasm_text parsers_agree

let prop_layers_cover_all_gates =
  QCheck2.Test.make ~name:"layer partition preserves the gate multiset"
    ~count:200 gen_circuit (fun c ->
      let flat = List.concat (Layers.partition c) in
      List.length flat = Circuit.length c)

let prop_depth_le_length =
  QCheck2.Test.make ~name:"depth never exceeds gate count" ~count:200
    gen_circuit (fun c ->
      (Circuit.stats c).Circuit.depth <= Circuit.length c)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vqc_circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "qubits" `Quick test_gate_qubits;
          Alcotest.test_case "classifiers" `Quick test_gate_classifiers;
          Alcotest.test_case "relabel" `Quick test_gate_relabel;
          Alcotest.test_case "equality" `Quick test_gate_equal_distinguishes_angles;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "sizes" `Quick test_circuit_sizes;
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "concat/relabel" `Quick test_circuit_concat_and_relabel;
          Alcotest.test_case "used qubits" `Quick test_used_qubits;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "barrier depth" `Quick test_barrier_synchronizes_depth;
          Alcotest.test_case "interactions" `Quick test_interaction_counts;
          Alcotest.test_case "activity" `Quick test_qubit_activity;
          Alcotest.test_case "swap decomposition" `Quick test_decompose_swaps;
        ] );
      ( "layers",
        [
          Alcotest.test_case "partition" `Quick test_layer_partition;
          Alcotest.test_case "disjoint and ordered" `Quick
            test_layers_disjoint_and_ordered;
          Alcotest.test_case "two qubit pairs" `Quick test_two_qubit_pairs;
          Alcotest.test_case "count = depth" `Quick test_layer_count_matches_depth;
        ]
        @ qcheck [ prop_layers_cover_all_gates; prop_depth_le_length ] );
      ( "dag",
        [
          Alcotest.test_case "structure" `Quick test_dag_structure;
          Alcotest.test_case "parallel fronts" `Quick test_dag_parallel_fronts;
          Alcotest.test_case "matches layer depth" `Quick
            test_dag_matches_layers_depth;
          Alcotest.test_case "barrier fences" `Quick test_dag_barrier_fences;
        ] );
      ( "qasm",
        [
          Alcotest.test_case "ghz roundtrip" `Quick test_qasm_roundtrip_ghz;
          Alcotest.test_case "angle roundtrip" `Quick test_qasm_roundtrip_angles;
          Alcotest.test_case "standard program" `Quick
            test_qasm_parse_standard_program;
          Alcotest.test_case "whole-register forms" `Quick
            test_qasm_whole_register_forms;
          Alcotest.test_case "multiple registers" `Quick
            test_qasm_multiple_registers_flatten;
          Alcotest.test_case "angle arithmetic" `Quick test_qasm_angle_arithmetic;
          Alcotest.test_case "parse errors" `Quick test_qasm_errors;
          Alcotest.test_case "comment after a slash" `Quick
            test_qasm_comment_after_slash;
          Alcotest.test_case "bad angle number" `Quick
            test_qasm_bad_angle_number;
          Alcotest.test_case "error lines" `Quick test_qasm_error_lines;
          Alcotest.test_case "qubit bound" `Quick test_qasm_max_qubits;
          Alcotest.test_case "edge cases against the oracle" `Quick
            test_qasm_edge_cases;
        ]
        @ qcheck
            [
              prop_qasm_roundtrip; prop_rendering_matches_printf;
              prop_parser_matches_oracle;
            ] );
    ]
