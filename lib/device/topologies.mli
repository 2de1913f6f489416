(** Coupling maps of the devices the paper studies, plus synthetic
    topologies for tests and examples.

    All maps are undirected coupler lists [(u, v)] with [u < v]. *)

val ibm_q20_tokyo : (int * int) list
(** The 20-qubit IBM-Q20 "Tokyo" map of paper Figure 9: a 4×5 grid with
    the published diagonal couplers (43 undirected couplers; IBM's
    calibration reports list both directions of most of them, which is
    the "76 links" the paper quotes). *)

val ibm_q5_tenerife : (int * int) list
(** The 5-qubit IBM-Q5 "Tenerife" bow-tie map used in Section 7. *)

val linear : int -> (int * int) list
(** A line of [n] qubits. *)

val ring : int -> (int * int) list
(** A cycle of [n >= 3] qubits. *)

val grid : rows:int -> cols:int -> (int * int) list
(** A [rows × cols] mesh, row-major numbering. *)

val fully_connected : int -> (int * int) list

val pentagon : (int * int) list
(** The 5-qubit ring of paper Figure 1(a). *)

val ibm_q16_melbourne : (int * int) list
(** The 14-qubit IBM Q16 "Melbourne" ladder (two rails of 7 with rungs)
    — a sparser contemporary of the Q20, useful for cross-topology
    studies. *)

val heavy_hex_27 : (int * int) list
(** A 27-qubit heavy-hex lattice in the style of IBM's Falcon devices —
    the post-NISQ-era sparse topology (degree <= 3). *)

val bristlecone_like : rows:int -> cols:int -> (int * int) list
(** A dense grid-with-diagonals in the style of Google's Bristlecone:
    the [rows x cols] mesh plus both diagonals of every plaquette.
    @raise Invalid_argument if either dimension is below 2. *)
