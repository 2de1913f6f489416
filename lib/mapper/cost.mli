(** Cost models for SWAP insertion.

    The baseline (paper Section 4.5) charges every SWAP the same unit
    cost, so minimizing cost minimizes SWAP count.  VQM (Section 5.3)
    charges a SWAP across link [u -- v] its negated log-reliability
    [-3 log(1 - e_uv)], so minimizing cost maximizes the product of
    success probabilities. *)

type model =
  | Hops  (** variation-unaware: every SWAP costs 1 *)
  | Reliability  (** variation-aware: a SWAP costs its [-log] success *)

type t

val default_swap_bias : float
(** Extra cost added to every SWAP under the [Reliability] model,
    expressed as a multiple of the device's mean SWAP log-cost (3.2).
    A longer route's SWAPs displace bystander qubits and future layers
    pay to undo it — a cost the per-layer objective cannot see (the paper
    adds the MAH hop budget for exactly this reason, Section 5.3).  The
    bias is a soft version: a reliability detour must save more than the
    bias per extra SWAP before it is taken, which keeps VQM's SWAP counts
    near the baseline's (the locality-preserving behaviour the paper
    describes).  Being relative keeps the policy scale-free: at 10x lower
    error rates SWAPs are 10x cheaper and steering proportionally freer
    (why paper Table 2's benefit grows as errors shrink).  [Hops] is
    unaffected (its unit cost already counts SWAPs). *)

val make : ?swap_bias:float -> Vqc_device.Device.t -> model -> t
(** Precompute the distance and adjacency-cost matrices for a device,
    and the routing tables the searches read instead of the device:
    its couplers, an adjacency bitmap, sorted neighbour arrays, and the
    CNOT and SWAP cost of every coupler.  [swap_bias] applies to the
    [Reliability] model only. *)

val cached : ?swap_bias:float -> Vqc_device.Device.t -> model -> t
(** [make] with a small process-wide cache keyed on the device's
    physical identity and [(model, swap_bias)]: repeated compiles
    against the same device share one precomputed table (and hence one
    {!id}, which lets downstream memo tables hit across policies).
    Thread-safe; bounded (least-recently-used devices are evicted). *)

val id : t -> int
(** Process-unique stamp, stable for the lifetime of this value.  Two
    [t]s built by separate {!make} calls never share an id even with
    equal parameters — suitable as a memo key component. *)

val model : t -> model
val device : t -> Vqc_device.Device.t

val swap_cost : t -> int -> int -> float
(** Cost of one SWAP across a coupler.
    @raise Invalid_argument if the qubits are not coupled. *)

val cnot_cost : t -> int -> int -> float
(** Cost of executing one CNOT across a coupler: 0 under [Hops] (the
    baseline executes the same CNOTs regardless of placement, so they
    don't influence its SWAP minimization) and [-log(1 - e)] under
    [Reliability] — the execution link matters as much as the route.
    @raise Invalid_argument if the qubits are not coupled. *)

val coupled : t -> int -> int -> bool
(** [Vqc_device.Device.connected] read from the table's adjacency
    bitmap (false for out-of-range qubits). *)

val couplers : t -> (int * int) array
(** The device's couplers in {!Vqc_device.Device.coupling} order
    ([u < v], sorted).  Shared: do not mutate. *)

val neighbors : t -> int -> int array
(** [Vqc_device.Device.neighbors] as an array, in increasing order.
    Shared: do not mutate. *)

val distance : t -> int -> int -> float
(** Cheapest SWAP-route cost between two physical qubits (0 when equal). *)

val entangle_cost : t -> int -> int -> float
(** Minimum total cost to entangle two physical qubits: the min over
    couplers [(a, b)] of [distance p a + distance q b + cnot_cost a b]
    in either orientation — the paper's matrix D (Algorithm 1 step 1)
    and the per-gate term of the A* heuristic. *)

val hops_to_adjacency : t -> int -> int -> int
(** Baseline SWAP count to make a pair adjacent ([hop distance - 1],
    0 when adjacent) — the reference for the MAH budget. *)

val window_sums : t -> (int * int) list -> float * float array
(** [window_sums t pairs] sums {!distance} over a window of physical
    pairs: the total, plus per physical qubit the summed distance of the
    pairs touching it.  Swapping qubits [u] and [v] can only change the
    distance of pairs touching them, and distances are non-negative, so
    [total - touched.(u) - touched.(v)] lower-bounds the window's
    post-swap sum (gates touching both are subtracted twice — still a
    valid bound) — the lookahead-window bound SABRE's candidate pruning
    is built on. *)

val route : t -> int -> int -> int list
(** Cheapest swap-route between two physical qubits as a node path
    (inclusive of both endpoints).  Under [Hops] this is some shortest
    path; under [Reliability] the most reliable one.
    @raise Invalid_argument if unreachable (devices are connected). *)
