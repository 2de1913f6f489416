(** Flat Monte-Carlo chunk kernel.

    Runs {!Monte_carlo}'s per-chunk trial loop without boxing: the
    failure-probability table is precompiled to one integer threshold
    per {e drawing} event, ended by a sentinel (events with probability
    [<= 0] are dropped, and the table stops at the first event with
    probability [>= 1]); the xoshiro256** state lives in four local
    registers for the whole chunk; and each Bernoulli draw is one table
    load, one generator step and one native int compare.  A parallel
    table records, for each slot, how many events the reference walk
    has visited when a trial ends there, so the visited-event telemetry
    survives the dropped events.

    The kernel is {e bit-identical} to the straightforward loop over
    [Rng.bernoulli]: same draw stream (events with probability [<= 0]
    or [>= 1] consume no draw, a trial stops drawing at its first
    failure), same success and draw counts, and the caller's generator
    ends in the same state.  The threshold encoding is exact — see the
    proof sketch in the implementation — so this is an optimization,
    never an approximation.  [test/test_kernels.ml] holds the
    differential oracle. *)

type table

val of_probabilities : float array -> table
(** Compile a per-event failure-probability table (the output of
    {!Monte_carlo.failure_probabilities}) into the sentinel-terminated
    threshold and visit-count tables. *)

val events : table -> int
(** Number of events per trial, counting the ones the table drops. *)

val run_chunk : table -> Vqc_rng.Rng.t -> int -> int * int
(** [run_chunk table rng count] runs [count] trials, advancing [rng]
    exactly as the reference loop would, and returns
    [(successes, draws)] where [draws] counts visited events (the
    telemetry the reference loop reports). *)
