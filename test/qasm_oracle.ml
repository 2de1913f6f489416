(* The serving path's QASM renderer and parser as they were before the
   one-pass rewrite of [Vqc_circuit.Qasm]: one [Printf.sprintf] per gate,
   a comment-stripped copy of the text, per-statement [Buffer]s and
   [split_on_char]/[trim]/[sub] lists.  Kept only as oracles: the
   rendering and differential-parsing properties in test_circuit.ml hold
   the library's implementation to these bytes, circuits and
   [(code, message, line)] diagnostics.  The one deliberate change from
   the old code: the first [//] on a line starts its comment (the old
   [strip_comments] only looked at the line's first [/]). *)

module Gate = Vqc_circuit.Gate
module Circuit = Vqc_circuit.Circuit

let gate_to_qasm gate =
  match gate with
  | Gate.One_qubit (kind, q) -> begin
    match kind with
    | Gate.Rx a -> Printf.sprintf "rx(%.17g) q[%d];" a q
    | Gate.Ry a -> Printf.sprintf "ry(%.17g) q[%d];" a q
    | Gate.Rz a -> Printf.sprintf "rz(%.17g) q[%d];" a q
    | Gate.U1 a -> Printf.sprintf "u1(%.17g) q[%d];" a q
    | Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg | Gate.T
    | Gate.Tdg ->
      Printf.sprintf "%s q[%d];" (Gate.one_qubit_name kind) q
  end
  | Gate.Cnot { control; target } ->
    Printf.sprintf "cx q[%d],q[%d];" control target
  | Gate.Swap (a, b) -> Printf.sprintf "swap q[%d],q[%d];" a b
  | Gate.Measure { qubit; cbit } ->
    Printf.sprintf "measure q[%d] -> c[%d];" qubit cbit
  | Gate.Barrier [] -> "barrier q;"
  | Gate.Barrier qs ->
    let operands = List.map (Printf.sprintf "q[%d]") qs in
    Printf.sprintf "barrier %s;" (String.concat "," operands)

let to_string c =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "OPENQASM 2.0;\n";
  Buffer.add_string buffer "include \"qelib1.inc\";\n";
  Buffer.add_string buffer
    (Printf.sprintf "qreg q[%d];\n" (Circuit.num_qubits c));
  Buffer.add_string buffer
    (Printf.sprintf "creg c[%d];\n" (Circuit.num_cbits c));
  List.iter
    (fun gate ->
      Buffer.add_string buffer (gate_to_qasm gate);
      Buffer.add_char buffer '\n')
    (Circuit.gates c);
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

module Diagnostic = Vqc_diag.Diagnostic

exception Parse_error of string

(* Typed parse failure (out-of-range index, identical operands); the
   statement loop stamps the line number on. *)
exception Diag_error of Diagnostic.t

let fail fmt = Printf.ksprintf (fun message -> raise (Parse_error message)) fmt

let fail_diag code fmt =
  Printf.ksprintf
    (fun message -> raise (Diag_error (Diagnostic.error code message)))
    fmt

let strip_comments text =
  let buffer = Buffer.create (String.length text) in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      let line =
        let rec first_comment i =
          match String.index_from_opt line i '/' with
          | Some j when j + 1 < String.length line && line.[j + 1] = '/' ->
            String.sub line 0 j
          | Some j -> first_comment (j + 1)
          | None -> line
        in
        first_comment 0
      in
      Buffer.add_string buffer line;
      Buffer.add_char buffer '\n')
    lines;
  Buffer.contents buffer

(* Statements with the 1-based line their first token sits on, so parse
   errors can point at the offending statement. *)
let statements text =
  let text = strip_comments text in
  let len = String.length text in
  let result = ref [] in
  let buffer = Buffer.create 64 in
  let line = ref 1 in
  let start_line = ref 0 in
  let flush_statement () =
    let s = String.trim (Buffer.contents buffer) in
    if s <> "" then result := (max 1 !start_line, s) :: !result;
    Buffer.clear buffer;
    start_line := 0
  in
  for i = 0 to len - 1 do
    let c = text.[i] in
    if c = ';' then flush_statement ()
    else begin
      if !start_line = 0 && c <> ' ' && c <> '\t' && c <> '\n' && c <> '\r'
      then start_line := !line;
      Buffer.add_char buffer c
    end;
    if c = '\n' then incr line
  done;
  flush_statement ();
  List.rev !result

(* --- tiny arithmetic evaluator for gate angles --------------------- *)

let eval_angle text =
  let len = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_spaces () =
    while !pos < len && (text.[!pos] = ' ' || text.[!pos] = '\t') do
      advance ()
    done
  in
  let rec expression () =
    let left = ref (term ()) in
    let rec more () =
      skip_spaces ();
      match peek () with
      | Some '+' ->
        advance ();
        left := !left +. term ();
        more ()
      | Some '-' ->
        advance ();
        left := !left -. term ();
        more ()
      | Some _ | None -> ()
    in
    more ();
    !left
  and term () =
    let left = ref (factor ()) in
    let rec more () =
      skip_spaces ();
      match peek () with
      | Some '*' ->
        advance ();
        left := !left *. factor ();
        more ()
      | Some '/' ->
        advance ();
        let divisor = factor () in
        if divisor = 0.0 then fail "angle: division by zero";
        left := !left /. divisor;
        more ()
      | Some _ | None -> ()
    in
    more ();
    !left
  and factor () =
    skip_spaces ();
    match peek () with
    | Some '-' ->
      advance ();
      -.factor ()
    | Some '+' ->
      advance ();
      factor ()
    | Some '(' ->
      advance ();
      let value = expression () in
      skip_spaces ();
      (match peek () with
      | Some ')' -> advance ()
      | Some _ | None -> fail "angle: expected ')' in %S" text);
      value
    | Some ('p' | 'P') ->
      if !pos + 1 < len && Char.lowercase_ascii text.[!pos + 1] = 'i' then begin
        pos := !pos + 2;
        Float.pi
      end
      else fail "angle: unexpected identifier in %S" text
    | Some c when (c >= '0' && c <= '9') || c = '.' ->
      let start = !pos in
      while
        !pos < len
        && (let d = text.[!pos] in
            (d >= '0' && d <= '9')
            || d = '.' || d = 'e' || d = 'E'
            || ((d = '+' || d = '-')
               && !pos > start
               && (text.[!pos - 1] = 'e' || text.[!pos - 1] = 'E')))
      do
        advance ()
      done;
      float_of_string (String.sub text start (!pos - start))
    | Some c -> fail "angle: unexpected character %c in %S" c text
    | None -> fail "angle: empty expression"
  in
  let value = expression () in
  skip_spaces ();
  if !pos <> len then fail "angle: trailing garbage in %S" text;
  value

(* --- register tracking --------------------------------------------- *)

type registers = {
  mutable qregs : (string * int * int) list;  (* name, offset, size *)
  mutable cregs : (string * int * int) list;
  mutable qtotal : int;
  mutable ctotal : int;
}

let find_register regs name =
  match List.find_opt (fun (n, _, _) -> n = name) regs with
  | Some entry -> entry
  | None -> fail "unknown register %s" name

(* Parse "name[idx]" or bare "name"; returns flat indices. *)
let resolve regs operand =
  let operand = String.trim operand in
  match String.index_opt operand '[' with
  | Some open_bracket ->
    let close_bracket =
      match String.index_opt operand ']' with
      | Some i -> i
      | None -> fail "missing ']' in %S" operand
    in
    let name = String.trim (String.sub operand 0 open_bracket) in
    let index_text =
      String.sub operand (open_bracket + 1) (close_bracket - open_bracket - 1)
    in
    let index =
      try int_of_string (String.trim index_text)
      with Failure _ -> fail "bad index in %S" operand
    in
    let _, offset, size = find_register regs name in
    if index < 0 || index >= size then
      fail_diag Diagnostic.code_index_range
        "index %d out of range for register %s[%d]" index name size;
    [ offset + index ]
  | None ->
    let _, offset, size = find_register regs (String.trim operand) in
    List.init size (fun i -> offset + i)

let split_operands text = String.split_on_char ',' text |> List.map String.trim

(* Split a statement into "head" (gate name + optional params) and operand
   text: the operands start after the first whitespace that is outside
   parentheses. *)
let split_head statement =
  let len = String.length statement in
  let depth = ref 0 in
  let boundary = ref None in
  (try
     for i = 0 to len - 1 do
       match statement.[i] with
       | '(' -> incr depth
       | ')' -> decr depth
       | ' ' | '\t' | '\n' ->
         if !depth = 0 then begin
           boundary := Some i;
           raise Exit
         end
       | _ -> ()
     done
   with Exit -> ());
  match !boundary with
  | None -> (statement, "")
  | Some i ->
    ( String.sub statement 0 i,
      String.trim (String.sub statement (i + 1) (len - i - 1)) )

let parse_gate_name head =
  match String.index_opt head '(' with
  | None -> (String.trim head, None)
  | Some open_paren ->
    let close_paren =
      match String.rindex_opt head ')' with
      | Some i -> i
      | None -> fail "missing ')' in %S" head
    in
    let name = String.trim (String.sub head 0 open_paren) in
    let angle_text =
      String.sub head (open_paren + 1) (close_paren - open_paren - 1)
    in
    (name, Some (eval_angle angle_text))

let one_qubit_kind name angle =
  match (name, angle) with
  | "h", None -> Gate.H
  | "x", None -> Gate.X
  | "y", None -> Gate.Y
  | "z", None -> Gate.Z
  | "s", None -> Gate.S
  | "sdg", None -> Gate.Sdg
  | "t", None -> Gate.T
  | "tdg", None -> Gate.Tdg
  | "rx", Some a -> Gate.Rx a
  | "ry", Some a -> Gate.Ry a
  | "rz", Some a -> Gate.Rz a
  | "u1", Some a -> Gate.U1 a
  | ("rx" | "ry" | "rz" | "u1"), None -> fail "gate %s requires an angle" name
  | _, Some _ -> fail "gate %s does not take an angle" name
  | _, None -> fail "unsupported gate %s" name

let parse_declaration regs ~quantum body =
  match String.index_opt body '[' with
  | None -> fail "malformed register declaration %S" body
  | Some open_bracket ->
    let close_bracket =
      match String.index_opt body ']' with
      | Some i -> i
      | None -> fail "missing ']' in %S" body
    in
    let name = String.trim (String.sub body 0 open_bracket) in
    let size =
      try
        int_of_string
          (String.trim
             (String.sub body (open_bracket + 1)
                (close_bracket - open_bracket - 1)))
      with Failure _ -> fail "bad register size in %S" body
    in
    if size <= 0 then fail "register %s must have positive size" name;
    if quantum then begin
      regs.qregs <- regs.qregs @ [ (name, regs.qtotal, size) ];
      regs.qtotal <- regs.qtotal + size
    end
    else begin
      regs.cregs <- regs.cregs @ [ (name, regs.ctotal, size) ];
      regs.ctotal <- regs.ctotal + size
    end

(* Split "lhs -> rhs" on the first arrow. *)
let split_on_arrow body =
  let len = String.length body in
  let rec find i =
    if i + 1 >= len then None
    else if body.[i] = '-' && body.[i + 1] = '>' then
      Some
        ( String.trim (String.sub body 0 i),
          String.trim (String.sub body (i + 2) (len - i - 2)) )
    else find (i + 1)
  in
  find 0

let parse_measure regs body =
  match split_on_arrow body with
  | None -> fail "measure without '->' in %S" body
  | Some (source, destination) ->
    let qubits = resolve regs.qregs source in
    let cbits = resolve regs.cregs destination in
    if List.length qubits <> List.length cbits then
      fail "measure arity mismatch in %S" body;
    List.map2 (fun qubit cbit -> Gate.Measure { qubit; cbit }) qubits cbits

let parse_statement regs statement =
  let head, rest = split_head statement in
  match head with
  | "OPENQASM" -> []
  | "include" -> []
  | "qreg" ->
    parse_declaration regs ~quantum:true rest;
    []
  | "creg" ->
    parse_declaration regs ~quantum:false rest;
    []
  | "measure" -> parse_measure regs rest
  | "barrier" ->
    let operands = split_operands rest in
    let qubits = List.concat_map (resolve regs.qregs) operands in
    [ Gate.Barrier qubits ]
  | "cx" | "CX" -> begin
    let two_qubit control target =
      if control = target then
        fail_diag Diagnostic.code_identical_operands
          "cx with identical operands q[%d] in %S" control statement;
      Gate.Cnot { control; target }
    in
    match split_operands rest with
    | [ a; b ] -> begin
      match (resolve regs.qregs a, resolve regs.qregs b) with
      | [ control ], [ target ] -> [ two_qubit control target ]
      | controls, targets when List.length controls = List.length targets ->
        List.map2 two_qubit controls targets
      | _ -> fail "cx arity mismatch in %S" statement
    end
    | _ -> fail "cx expects two operands in %S" statement
  end
  | "swap" -> begin
    match split_operands rest with
    | [ a; b ] -> begin
      match (resolve regs.qregs a, resolve regs.qregs b) with
      | [ qa ], [ qb ] ->
        if qa = qb then
          fail_diag Diagnostic.code_identical_operands
            "swap with identical operands q[%d] in %S" qa statement;
        [ Gate.Swap (qa, qb) ]
      | _ -> fail "swap expects single qubits in %S" statement
    end
    | _ -> fail "swap expects two operands in %S" statement
  end
  | _ ->
    let name, angle = parse_gate_name head in
    let kind = one_qubit_kind name angle in
    let operands = split_operands rest in
    let qubits = List.concat_map (resolve regs.qregs) operands in
    List.map (fun q -> Gate.One_qubit (kind, q)) qubits

let of_string_diag text =
  let regs = { qregs = []; cregs = []; qtotal = 0; ctotal = 0 } in
  let parse_at (line, statement) =
    let located d =
      if d.Diagnostic.location = Diagnostic.Nowhere then
        { d with Diagnostic.location = Diagnostic.Line line }
      else d
    in
    try parse_statement regs statement with
    | Parse_error message ->
      raise
        (Diag_error
           (Diagnostic.error ~location:(Diagnostic.Line line)
              Diagnostic.code_parse message))
    | Diag_error d -> raise (Diag_error (located d))
  in
  try
    let gates = List.concat_map parse_at (statements text) in
    Ok (Circuit.of_gates ~cbits:(max regs.ctotal 0) regs.qtotal gates)
  with
  | Diag_error d -> Error d
  | Invalid_argument message ->
    Error (Diagnostic.error Diagnostic.code_parse message)

let of_string text =
  match of_string_diag text with
  | Ok c -> Ok c
  | Error d ->
    Error
      (match d.Diagnostic.location with
      | Diagnostic.Line line ->
        Printf.sprintf "line %d: %s" line d.Diagnostic.message
      | Diagnostic.Nowhere | Diagnostic.Gate _ | Diagnostic.File_line _ ->
        d.Diagnostic.message)

let of_string_exn text =
  match of_string text with Ok c -> c | Error message -> failwith message
