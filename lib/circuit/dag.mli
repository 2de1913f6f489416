(** Gate dependency DAG.

    Gate [j] depends on gate [i] when [i] is the latest earlier gate
    touching one of [j]'s qubits (barriers depend on, and are depended on
    by, everything crossing them).  The DAG backs the SABRE router's
    front-layer iteration and exposes the structural circuit metrics
    (ASAP levels, critical path) independently of any device. *)

type t

val build : Circuit.t -> t
(** Indices follow the circuit's gate order. *)

val gate_count : t -> int

val gate : t -> int -> Gate.t
(** @raise Invalid_argument when out of range. *)

val successors : t -> int -> int list
(** Direct dependents, in increasing index order. *)

val predecessors : t -> int -> int list
(** Direct dependencies, in increasing index order. *)

val predecessor_count : t -> int -> int

val front : t -> int list
(** Gates with no predecessors (the initial front layer), increasing. *)

val asap_levels : t -> int array
(** [levels.(i)] is the earliest layer gate [i] can run in (0-based);
    matches {!Layers.partition} for barrier-free circuits. *)

val critical_path_length : t -> int
(** [1 + max asap level], i.e. the dependency depth (0 when empty). *)
