(** Device calibration data: the per-qubit and per-link error figures that
    IBM publishes after each calibration cycle (paper Section 3).

    Link keys are unordered qubit pairs — the model treats a coupler's CNOT
    error as direction-independent, matching the per-link numbers the paper
    reports in Figure 9. *)

type qubit = {
  t1_us : float;  (** relaxation time, microseconds *)
  t2_us : float;  (** dephasing time, microseconds *)
  error_1q : float;  (** single-qubit gate error probability *)
  error_readout : float;  (** measurement error probability *)
}

type t

val create : int -> t
(** Calibration for [n] qubits with default (idealized) figures and no
    link entries.  @raise Invalid_argument if [n < 0]. *)

val num_qubits : t -> int

val qubit : t -> int -> qubit
(** @raise Invalid_argument on an out-of-range qubit. *)

val set_qubit : t -> int -> qubit -> unit

val link_error : t -> int -> int -> float option
(** Two-qubit (CNOT) error probability of a coupler, if calibrated. *)

val link_error_exn : t -> int -> int -> float
(** @raise Not_found when the pair has no calibration entry. *)

val set_link_error : t -> int -> int -> float -> unit
(** @raise Invalid_argument if the probability is outside [\[0, 1\]] or the
    qubits coincide. *)

val links : t -> (int * int * float) list
(** All calibrated links as [(u, v, error)] with [u < v], sorted. *)

val copy : t -> t

(** Summary statistics of a sample (used to check the synthetic model
    against the paper's published numbers). *)
type summary = {
  mean : float;
  std : float;
  minimum : float;
  maximum : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on an empty list. *)

val link_error_summary : t -> summary

val scale_link_errors : t -> mean_factor:float -> cov_factor:float -> t
(** Affine rescale of the two-qubit error distribution (paper Table 2):
    the mean is multiplied by [mean_factor] and the coefficient of
    variation (std/mean) by [cov_factor]; each link keeps its z-score.
    Results are clamped to [\[1e-6, 0.75\]]. *)

val to_string : t -> string
(** Plain-text serialization (one record per line). *)

val of_string : string -> (t, string) result
val of_string_exn : string -> t

val pp : Format.formatter -> t -> unit
