(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* [Printf]'s [%.17g] is this primitive applied to the format "%.17g",
   and [%d] is [string_of_int]; writing the same conversions directly
   keeps every rendered byte (and so every circuit fingerprint) while
   skipping the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let chunk_size = 256

let fold_rendering f init c =
  let chunk = Bytes.create chunk_size in
  let fill = ref 0 in
  let acc = ref init in
  let flush () =
    if !fill > 0 then begin
      acc := f !acc chunk 0 !fill;
      fill := 0
    end
  in
  (* every piece (a fixed token, an int's digits, a %.17g angle) is far
     shorter than a chunk, so it always fits after a flush *)
  let reserve n = if !fill + n > chunk_size then flush () in
  let put s =
    let n = String.length s in
    reserve n;
    Bytes.blit_string s 0 chunk !fill n;
    fill := !fill + n
  in
  let put_int n =
    if n < 0 then put (string_of_int n)
    else begin
      let digits = ref 1 and rest = ref (n / 10) in
      while !rest > 0 do
        incr digits;
        rest := !rest / 10
      done;
      reserve !digits;
      let rest = ref n in
      for i = !fill + !digits - 1 downto !fill do
        Bytes.set chunk i (Char.chr (Char.code '0' + (!rest mod 10)));
        rest := !rest / 10
      done;
      fill := !fill + !digits
    end
  in
  let qubit q =
    put "q[";
    put_int q;
    put "]"
  in
  let gate g =
    (match g with
    | Gate.One_qubit (kind, q) ->
      put (Gate.one_qubit_name kind);
      (match kind with
      | Gate.Rx a | Gate.Ry a | Gate.Rz a | Gate.U1 a ->
        put "(";
        put (format_float "%.17g" a);
        put ") "
      | Gate.H | Gate.X | Gate.Y | Gate.Z | Gate.S | Gate.Sdg | Gate.T
      | Gate.Tdg ->
        put " ");
      qubit q
    | Gate.Cnot { control; target } ->
      put "cx ";
      qubit control;
      put ",";
      qubit target
    | Gate.Swap (a, b) ->
      put "swap ";
      qubit a;
      put ",";
      qubit b
    | Gate.Measure { qubit = q; cbit } ->
      put "measure ";
      qubit q;
      put " -> c[";
      put_int cbit;
      put "]"
    | Gate.Barrier [] -> put "barrier q"
    | Gate.Barrier (q :: qs) ->
      put "barrier ";
      qubit q;
      List.iter
        (fun q ->
          put ",";
          qubit q)
        qs);
    put ";\n"
  in
  put "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[";
  put_int (Circuit.num_qubits c);
  put "];\ncreg c[";
  put_int (Circuit.num_cbits c);
  put "];\n";
  List.iter gate (Circuit.gates c);
  flush ();
  !acc

let to_string c =
  let buffer = Buffer.create 256 in
  fold_rendering
    (fun () chunk off len -> Buffer.add_subbytes buffer chunk off len)
    () c;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* One indexed pass over the text.  A statement is a span [a, b) of a
   source string: the text itself, or, for the rare statement with a
   comment inside it, a copy with the comments cut out.  Substrings are
   only built for register names, angle lexemes and error messages. *)

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

(* A closing bracket before the opening one has always been reported as
   the unlocated failure of the [String.sub] that cut the text between
   them; the message stays that byte sequence. *)
let reversed_brackets () = invalid_arg "String.sub / Bytes.sub"

(* [String.trim]'s whitespace *)
let is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let rec skip_space src a b =
  if a < b && is_space src.[a] then skip_space src (a + 1) b else a

let rec back_space src a b =
  if b > a && is_space src.[b - 1] then back_space src a (b - 1) else b

let sub src a b = String.sub src a (b - a)

let trimmed src a b =
  let a = skip_space src a b in
  sub src a (back_space src a b)

let rec index src a b c =
  if a >= b then -1 else if src.[a] = c then a else index src (a + 1) b c

let rec rindex src a b c =
  if b <= a then -1
  else if src.[b - 1] = c then b - 1
  else rindex src a (b - 1) c

let rec same_from src a word i =
  i = String.length word
  || (src.[a + i] = word.[i] && same_from src a word (i + 1))

let equal_span src a b word =
  b - a = String.length word && same_from src a word 0

(* The value of a run of decimal digits, or -1 if another byte occurs. *)
let rec decimal src i b n =
  if i = b then n
  else
    match src.[i] with
    | '0' .. '9' as d ->
      decimal src (i + 1) b ((10 * n) + Char.code d - Char.code '0')
    | _ -> -1

exception Not_an_int

(* [int_of_string] of the trimmed span; plain digit runs (every index a
   renderer writes) are read in place.
   @raise Not_an_int where [int_of_string] fails. *)
let int_of_span src a b =
  let a = skip_space src a b in
  let b = back_space src a b in
  let n = if b > a && b - a <= 18 then decimal src a b 0 else -1 in
  if n >= 0 then n
  else
    match int_of_string_opt (sub src a b) with
    | Some n -> n
    | None -> raise Not_an_int

(* --- tiny arithmetic evaluator for gate angles --------------------- *)

(* Recursive descent over the angle text [first, stop) of [src]. *)
type cursor = {
  src : string;
  first : int;
  stop : int;
  mutable pos : int;
}

let angle_text c = sub c.src c.first c.stop
let next_is c ch = c.pos < c.stop && c.src.[c.pos] = ch

let rec skip_blanks c =
  if next_is c ' ' || next_is c '\t' then begin
    c.pos <- c.pos + 1;
    skip_blanks c
  end

let rec expression c = more_terms c (term c)

and more_terms c left =
  skip_blanks c;
  if next_is c '+' then begin
    c.pos <- c.pos + 1;
    more_terms c (left +. term c)
  end
  else if next_is c '-' then begin
    c.pos <- c.pos + 1;
    more_terms c (left -. term c)
  end
  else left

and term c = more_factors c (factor c)

and more_factors c left =
  skip_blanks c;
  if next_is c '*' then begin
    c.pos <- c.pos + 1;
    more_factors c (left *. factor c)
  end
  else if next_is c '/' then begin
    c.pos <- c.pos + 1;
    let divisor = factor c in
    if divisor = 0.0 then fail "angle: division by zero";
    more_factors c (left /. divisor)
  end
  else left

and factor c =
  skip_blanks c;
  if c.pos >= c.stop then fail "angle: empty expression";
  match c.src.[c.pos] with
  | '-' ->
    c.pos <- c.pos + 1;
    -.factor c
  | '+' ->
    c.pos <- c.pos + 1;
    factor c
  | '(' ->
    c.pos <- c.pos + 1;
    let value = expression c in
    skip_blanks c;
    if next_is c ')' then c.pos <- c.pos + 1
    else fail "angle: expected ')' in %S" (angle_text c);
    value
  | 'p' | 'P' ->
    if c.pos + 1 < c.stop && Char.lowercase_ascii c.src.[c.pos + 1] = 'i'
    then begin
      c.pos <- c.pos + 2;
      Float.pi
    end
    else fail "angle: unexpected identifier in %S" (angle_text c)
  | '0' .. '9' | '.' -> number c c.pos
  | ch -> fail "angle: unexpected character %c in %S" ch (angle_text c)

(* Digits, '.', 'e' and 'E', and a sign right after an exponent mark. *)
and number c start =
  let src = c.src in
  if
    c.pos < c.stop
    &&
    match src.[c.pos] with
    | '0' .. '9' | '.' | 'e' | 'E' -> true
    | '+' | '-' ->
      c.pos > start && (src.[c.pos - 1] = 'e' || src.[c.pos - 1] = 'E')
    | _ -> false
  then begin
    c.pos <- c.pos + 1;
    number c start
  end
  else begin
    let lexeme = sub src start c.pos in
    match float_of_string_opt lexeme with
    | Some value -> value
    | None -> fail "angle: bad number %S in %S" lexeme (angle_text c)
  end

let eval_angle src first stop =
  let c = { src; first; stop; pos = first } in
  let value = expression c in
  skip_blanks c;
  if c.pos <> stop then fail "angle: trailing garbage in %S" (angle_text c);
  value

(* --- registers and operands ----------------------------------------- *)

type state = {
  max_qubits : int;
  mutable qregs : (string * int * int) list;  (* name, offset, size *)
  mutable cregs : (string * int * int) list;
  mutable qtotal : int;
  mutable ctotal : int;
  mutable rev_gates : Gate.t list;
}

let emit st gate = st.rev_gates <- gate :: st.rev_gates

let rec lookup regs src a b =
  match regs with
  | [] -> fail "unknown register %s" (sub src a b)
  | ((name, _, _) as register) :: rest ->
    if equal_span src a b name then register else lookup rest src a b

(* The first-declared register named by the trimmed span, as
   [(name, offset, size)]. *)
let find_register regs src a b =
  let a = skip_space src a b in
  lookup regs src a (back_space src a b)

(* "name[idx]" or a bare register name: the [count] consecutive flat
   indices from [first], as [(first, count)]. *)
let resolve regs src a b =
  let a = skip_space src a b in
  let b = back_space src a b in
  let open_bracket = index src a b '[' in
  if open_bracket < 0 then begin
    let _, offset, size = find_register regs src a b in
    (offset, size)
  end
  else begin
    let close_bracket = index src a b ']' in
    if close_bracket < 0 then fail "missing ']' in %S" (sub src a b);
    if close_bracket < open_bracket then reversed_brackets ();
    let index =
      match int_of_span src (open_bracket + 1) close_bracket with
      | index -> index
      | exception Not_an_int -> fail "bad index in %S" (sub src a b)
    in
    let _, offset, size = find_register regs src a open_bracket in
    if index < 0 || index >= size then
      fail_diag Diagnostic.code_index_range
        "index %d out of range for register %s[%d]" index
        (trimmed src a open_bracket) size;
    (offset + index, 1)
  end

(* Resolve each comma-separated operand of [a, b) in order. *)
let rec iter_operands regs src a b f =
  let comma = index src a b ',' in
  let first, count = resolve regs src a (if comma < 0 then b else comma) in
  for q = first to first + count - 1 do
    f q
  done;
  if comma >= 0 then iter_operands regs src (comma + 1) b f

(* The comma between exactly two operands in [a, b), or -1. *)
let two_operands src a b =
  let comma = index src a b ',' in
  if comma >= 0 && index src (comma + 1) b ',' < 0 then comma else -1

let declare st ~quantum src a b =
  let open_bracket = index src a b '[' in
  if open_bracket < 0 then
    fail "malformed register declaration %S" (sub src a b);
  let close_bracket = index src a b ']' in
  if close_bracket < 0 then fail "missing ']' in %S" (sub src a b);
  let name = trimmed src a open_bracket in
  if close_bracket < open_bracket then reversed_brackets ();
  let size =
    match int_of_span src (open_bracket + 1) close_bracket with
    | size -> size
    | exception Not_an_int -> fail "bad register size in %S" (sub src a b)
  in
  if size <= 0 then fail "register %s must have positive size" name;
  if quantum then begin
    (* compared by difference so a size near [max_int] cannot overflow *)
    if size > st.max_qubits - st.qtotal then
      fail "register %s[%d] takes the circuit past %d qubits" name size
        st.max_qubits;
    st.qregs <- st.qregs @ [ (name, st.qtotal, size) ];
    st.qtotal <- st.qtotal + size
  end
  else begin
    st.cregs <- st.cregs @ [ (name, st.ctotal, size) ];
    st.ctotal <- st.ctotal + size
  end

let measure st src a b =
  let rec arrow i =
    if i + 1 >= b then fail "measure without '->' in %S" (sub src a b)
    else if src.[i] = '-' && src.[i + 1] = '>' then i
    else arrow (i + 1)
  in
  let arrow = arrow a in
  let qubit, qubits = resolve st.qregs src a arrow in
  let cbit, cbits = resolve st.cregs src (arrow + 2) b in
  if qubits <> cbits then fail "measure arity mismatch in %S" (sub src a b);
  for i = 0 to qubits - 1 do
    emit st (Gate.Measure { qubit = qubit + i; cbit = cbit + i })
  done

let rotation src a b =
  if b - a <> 2 then None
  else
    match (src.[a], src.[a + 1]) with
    | 'r', 'x' -> Some (fun angle -> Gate.Rx angle)
    | 'r', 'y' -> Some (fun angle -> Gate.Ry angle)
    | 'r', 'z' -> Some (fun angle -> Gate.Rz angle)
    | 'u', '1' -> Some (fun angle -> Gate.U1 angle)
    | _ -> None

(* The gate named by the trimmed span, with its angle if it has one. *)
let one_qubit_kind src a b angle =
  let a = skip_space src a b in
  let b = back_space src a b in
  match (angle, rotation src a b) with
  | Some angle, Some gate -> gate angle
  | Some _, None -> fail "gate %s does not take an angle" (sub src a b)
  | None, Some _ -> fail "gate %s requires an angle" (sub src a b)
  | None, None ->
    if equal_span src a b "h" then Gate.H
    else if equal_span src a b "x" then Gate.X
    else if equal_span src a b "y" then Gate.Y
    else if equal_span src a b "z" then Gate.Z
    else if equal_span src a b "s" then Gate.S
    else if equal_span src a b "sdg" then Gate.Sdg
    else if equal_span src a b "t" then Gate.T
    else if equal_span src a b "tdg" then Gate.Tdg
    else fail "unsupported gate %s" (sub src a b)

(* The end of a statement's head: the first space, tab or newline
   outside parentheses. *)
let rec head_end src b i depth =
  if i >= b then b
  else
    match src.[i] with
    | '(' -> head_end src b (i + 1) (depth + 1)
    | ')' -> head_end src b (i + 1) (depth - 1)
    | ' ' | '\t' | '\n' when depth = 0 -> i
    | _ -> head_end src b (i + 1) depth

(* A trimmed, non-empty statement [a, b) of [src]: the head (gate name
   and optional parameters), then the operands [ra, rb), trimmed. *)
let statement st src a b =
  let h = head_end src b a 0 in
  let ra = if h = b then b else skip_space src (h + 1) b in
  let rb = back_space src ra b in
  if equal_span src a h "OPENQASM" || equal_span src a h "include" then ()
  else if equal_span src a h "qreg" then declare st ~quantum:true src ra rb
  else if equal_span src a h "creg" then declare st ~quantum:false src ra rb
  else if equal_span src a h "measure" then measure st src ra rb
  else if equal_span src a h "barrier" then begin
    let qubits = ref [] in
    iter_operands st.qregs src ra rb (fun q -> qubits := q :: !qubits);
    emit st (Gate.Barrier (List.rev !qubits))
  end
  else if equal_span src a h "cx" || equal_span src a h "CX" then begin
    let comma = two_operands src ra rb in
    if comma < 0 then fail "cx expects two operands in %S" (sub src a b);
    let control, controls = resolve st.qregs src ra comma in
    let target, targets = resolve st.qregs src (comma + 1) rb in
    if controls <> targets then fail "cx arity mismatch in %S" (sub src a b);
    for i = 0 to controls - 1 do
      let control = control + i and target = target + i in
      if control = target then
        fail_diag Diagnostic.code_identical_operands
          "cx with identical operands q[%d] in %S" control (sub src a b);
      emit st (Gate.Cnot { control; target })
    done
  end
  else if equal_span src a h "swap" then begin
    let comma = two_operands src ra rb in
    if comma < 0 then fail "swap expects two operands in %S" (sub src a b);
    let qa, na = resolve st.qregs src ra comma in
    let qb, nb = resolve st.qregs src (comma + 1) rb in
    if na <> 1 || nb <> 1 then
      fail "swap expects single qubits in %S" (sub src a b);
    if qa = qb then
      fail_diag Diagnostic.code_identical_operands
        "swap with identical operands q[%d] in %S" qa (sub src a b);
    emit st (Gate.Swap (qa, qb))
  end
  else begin
    let open_paren = index src a h '(' in
    let kind =
      if open_paren < 0 then one_qubit_kind src a h None
      else begin
        let close_paren = rindex src a h ')' in
        if close_paren < 0 then fail "missing ')' in %S" (sub src a h);
        if close_paren < open_paren then reversed_brackets ();
        let angle = eval_angle src (open_paren + 1) close_paren in
        one_qubit_kind src a open_paren (Some angle)
      end
    in
    iter_operands st.qregs src ra rb (fun q ->
        emit st (Gate.One_qubit (kind, q)))
  end

let of_string_diag ?(max_qubits = max_int) text =
  let len = String.length text in
  let st =
    {
      max_qubits;
      qregs = [];
      cregs = [];
      qtotal = 0;
      ctotal = 0;
      rev_gates = [];
    }
  in
  let line = ref 1 in
  let line_end i =
    match String.index_from_opt text i '\n' with Some k -> k | None -> len
  in
  (* A statement ends at the next ';' outside comments, and the first
     [//] on a line starts a comment.  Its line is the line of its first
     character that is not a space, tab, CR or LF.  A statement with a
     comment inside is parsed from a copy with the comments cut out;
     [copied] holds that copy up to [from]. *)
  let rec next start =
    let first_line = ref 0 and copied = ref None in
    let from = ref start and i = ref start in
    while !i < len && text.[!i] <> ';' do
      let c = text.[!i] in
      if c = '/' && !i + 1 < len && text.[!i + 1] = '/' then begin
        let buffer =
          match !copied with Some buffer -> buffer | None -> Buffer.create 64
        in
        Buffer.add_substring buffer text !from (!i - !from);
        copied := Some buffer;
        i := line_end !i;
        from := !i
      end
      else begin
        if c = '\n' then incr line
        else if !first_line = 0 && c <> ' ' && c <> '\t' && c <> '\r' then
          first_line := !line;
        incr i
      end
    done;
    let stop = !i in
    let src, a, b =
      match !copied with
      | None -> (text, start, stop)
      | Some buffer ->
        Buffer.add_substring buffer text !from (stop - !from);
        let src = Buffer.contents buffer in
        (src, 0, String.length src)
    in
    let a = skip_space src a b in
    let b = back_space src a b in
    if a < b then begin
      let line = !first_line in
      try statement st src a b with
      | Parse_error message ->
        raise
          (Diag_error
             (Diagnostic.error ~location:(Diagnostic.Line line)
                Diagnostic.code_parse message))
      | Diag_error d when d.Diagnostic.location = Diagnostic.Nowhere ->
        raise
          (Diag_error { d with Diagnostic.location = Diagnostic.Line line })
    end;
    if stop < len then next (stop + 1)
  in
  try
    next 0;
    Ok
      (Circuit.of_gates ~cbits:(max st.ctotal 0) st.qtotal
         (List.rev st.rev_gates))
  with
  | Diag_error d -> Error d
  | Invalid_argument message ->
    Error (Diagnostic.error Diagnostic.code_parse message)

let of_string ?max_qubits text =
  match of_string_diag ?max_qubits text with
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
