(** OpenQASM 2.0 subset: enough to round-trip every circuit this library
    produces and to import the micro-benchmark kernels.

    Supported statements: the [OPENQASM 2.0] header, [include], [qreg],
    [creg], the standard gates [h x y z s sdg t tdg rx ry rz u1 cx swap],
    [barrier] and [measure] (single-bit and whole-register forms).  Angle
    expressions support [+ - * /], parentheses, numeric literals and [pi].
    Multiple quantum registers are flattened into one qubit index space in
    declaration order. *)

val to_string : Circuit.t -> string
(** Emit a program with one register [q] and one classical register [c]. *)

val fold_rendering :
  ('a -> Bytes.t -> int -> int -> 'a) -> 'a -> Circuit.t -> 'a
(** [fold_rendering f init c] streams [to_string c] through [f] without
    building it: [f acc chunk off len] receives the next [len] bytes of
    the rendering at [chunk.[off]], in order.  The chunk is reused, so
    its bytes are valid only during the call. *)

val of_string : ?max_qubits:int -> string -> (Circuit.t, string) result
(** Parse a program.  [Error message] points at the offending statement
    (rendered from {!of_string_diag}, line number included). *)

val of_string_diag :
  ?max_qubits:int -> string -> (Circuit.t, Vqc_diag.Diagnostic.t) result
(** Parse with a structured error: out-of-range qubit/cbit indices carry
    {!Vqc_diag.Diagnostic.code_index_range}, two-qubit gates with
    identical operands carry
    {!Vqc_diag.Diagnostic.code_identical_operands}, everything else
    {!Vqc_diag.Diagnostic.code_parse}; the location is the statement's
    1-based source line.

    [max_qubits] (default unbounded) caps the declared qubit total: the
    [qreg] that takes it past the bound fails with
    {!Vqc_diag.Diagnostic.code_parse}, naming the register and the
    bound, before any gate is built — so a short program cannot expand
    into an arbitrarily large circuit. *)

val of_string_exn : string -> Circuit.t
(** @raise Failure on parse errors. *)
