(** Program-to-physical qubit mappings.

    A layout places each of the [k] program qubits on a distinct physical
    qubit of an [n >= k]-qubit device.  SWAPs permute the {e physical}
    occupancy: swapping physical qubits [u] and [v] exchanges whatever
    program qubits (possibly none) reside there. *)

type t

val identity : programs:int -> physicals:int -> t
(** Program qubit [i] on physical qubit [i].
    @raise Invalid_argument if [programs > physicals] or either is
    negative. *)

val of_assignment : physicals:int -> int array -> t
(** [of_assignment ~physicals a] places program qubit [i] on physical
    [a.(i)].  @raise Invalid_argument on duplicates or range errors. *)

val programs : t -> int
val physicals : t -> int

val physical_of_program : t -> int -> int
(** Where a program qubit currently resides. *)

val program_of_physical : t -> int -> int option
(** Which program qubit occupies a physical qubit, if any. *)

val occupied : t -> int -> bool

val swap_physical : t -> int -> int -> t
(** Functional update: exchange the occupants of two physical qubits.
    @raise Invalid_argument on out-of-range or identical qubits. *)

val assignment : t -> int array
(** Copy of the program→physical array. *)

val used_physicals : t -> int list
(** Physical qubits hosting a program qubit, sorted. *)

val key : t -> string
(** Canonical serialization (for A* duplicate detection). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
