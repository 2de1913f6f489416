(** Initial qubit-allocation policies (paper Sections 4.5, 6.2 and 6.4).

    - [Trivial]: program qubit [i] on physical qubit [i].
    - [Random]: a seeded random placement — the "IBM native compiler"
      comparison point of Section 6.4.
    - [Locality]: the variation-unaware baseline — qubits that interact a
      lot are placed close (by hop distance), centred on the device.
    - [Vqa]: Variation-Aware Qubit Allocation — pick the connected
      subgraph with the highest aggregate node strength of the success
      graph, then map program qubits in decreasing activity order onto it
      so that frequently-entangled pairs sit on the most reliable links
      (Algorithm 2).  [activity_window] bounds the instruction-analysis
      prefix (first-N layers); [None] analyzes the whole program.
      [readout_aware] extends the paper's policy: measured program qubits
      additionally prefer physical qubits with low readout error (the
      paper optimizes two-qubit links only; its VQA can silently trade
      measurement fidelity away — an extension in the spirit of
      Section 9's limitations). *)

type policy =
  | Trivial
  | Random of int
  | Locality
  | Vqa of { activity_window : int option; readout_aware : bool }

val vqa : policy
(** The paper's policy:
    [Vqa { activity_window = None; readout_aware = false }]. *)

val vqa_readout : policy
(** The readout-aware extension:
    [Vqa { activity_window = None; readout_aware = true }]. *)

val allocate : Vqc_device.Device.t -> Vqc_circuit.Circuit.t -> policy -> Layout.t
(** Compute the initial layout.  A program with no qubits gets the empty
    layout under every policy.
    @raise Invalid_argument if the program needs more qubits than the
    device provides. *)

val policy_name : policy -> string
