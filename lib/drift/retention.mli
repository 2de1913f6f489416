(** Thresholded retain / re-verify / recompile decisions.

    The wholesale regime the paper describes (recompile everything at
    every calibration) is the [threshold = 0] point of a dial: a plan is
    a candidate for retention when its {!Staleness.staleness} — the
    magnitude of its predicted relative PST change — stays within the
    threshold.  A candidate is only actually retained after it
    {e re-verifies}: {!Vqc_check.Verify} replays it against the device
    carrying the {e new} calibration, so a retained plan is held to
    exactly the bar a fresh compile is held to under [--verify]
    (adjacency, replay, SWAP accounting, calibration sanity).  Anything
    else is demoted to the recompile set.

    Determinism contract: decisions are pure functions of
    (policy, score); re-verification is the deterministic checker.  A
    policy with [threshold <= 0] is {!wholesale} — callers must take
    the plain flush path, byte-identical to the paper's regime. *)

type policy = {
  threshold : float;
      (** largest tolerated {!Staleness.staleness}; [<= 0] means the
          wholesale-flush regime (no scoring, no background
          recompilation) *)
}

val default : policy
(** [threshold = 0.05]: tolerate up to a 5% predicted relative PST
    change.  On the synthetic Q20 history this retains the plans whose
    routes dodge the links that moved while recompiling the rest — the
    selective middle ground between never recompiling and the paper's
    always-recompile. *)

val wholesale : policy -> bool
(** Whether the policy degenerates to the paper's wholesale flush
    ([threshold <= 0]). *)

type decision =
  | Retain  (** keep the plan, subject to re-verification *)
  | Recompile  (** demote: recompile against the new calibration *)

val decide : policy -> Staleness.score -> decision
(** [Retain] iff [Staleness.staleness score <= threshold] (and the
    policy is not {!wholesale}). *)

val reverify :
  device:Vqc_device.Device.t ->
  source:Vqc_circuit.Circuit.t ->
  physical:Vqc_circuit.Circuit.t ->
  initial:int array ->
  final:int array ->
  swaps:int ->
  Vqc_diag.Diagnostic.t list
(** Replay a cached plan against a device (normally the one carrying the
    new calibration) through {!Vqc_check.Verify.check}.  Layout arrays
    that do not form valid layouts come back as a [VQC108] diagnostic
    instead of an exception, so a corrupted cache entry demotes rather
    than crashes. *)
