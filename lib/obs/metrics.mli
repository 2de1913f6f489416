(** Process-local metric registry: named counters, gauges, and latency
    histograms.

    Handles are registered on first use and live for the process; a
    second [counter name] call returns the same underlying metric, so
    subsystems can hold handles at module-init time while dumps and
    tests look metrics up by name.  Recording is safe from any domain —
    counters and gauges are atomics, each histogram has its own lock —
    and deliberately cheap enough to leave compiled in.

    Naming convention: dotted [subsystem.metric] names, e.g.
    [engine.pool.chunks], [sim.mc.trials], [mapper.swaps_inserted].

    Recording a metric must never perturb the instrumented computation:
    nothing here touches RNG state or program output. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create the counter named [name] (starts at 0). *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
(** Find-or-create the gauge named [name] (starts at 0.0). *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Find-or-create the histogram named [name].  Observations land in
    fixed log-linear buckets, 128 per power of two, so a bucket's lower
    bound is within 1/128 of every positive normal sample in it (the
    subnormals below 2^-1022 share 128 linear buckets); non-positive
    and non-finite samples rank below ([<= 0], [nan]) or above ([+inf])
    every bucket.  A power of two's row of counters is allocated on its
    first sample, so memory stays bounded however many samples a
    long-running process records.  Count, sum, minimum and maximum are
    exact. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h rank] takes the nearest-rank index for [rank] in
    [0, 1] and returns the lower bound of the bucket holding that
    sample, clamped to the exact [min, max]: within 1/128 of the exact
    order statistic for positive samples, never above it, and exact at
    ranks 0 and 1.  Non-positive samples stand as the minimum.
    Monotone in [rank].
    @raise Invalid_argument on an empty histogram or a rank outside
    [0, 1]. *)

val histogram_name : histogram -> string

(** {1 Registry-wide operations} *)

val reset : unit -> unit
(** Zero every registered metric {e in place} — handles held by
    instrumented modules stay valid.  Used between experiments and by
    tests. *)

val fold_counters : ('a -> string -> int -> 'a) -> 'a -> 'a
(** Fold over counters in name order. *)

val fold_gauges : ('a -> string -> float -> 'a) -> 'a -> 'a
val fold_histograms : ('a -> string -> histogram -> 'a) -> 'a -> 'a

val pp : Format.formatter -> unit -> unit
(** Human-readable dump of the whole registry, sorted by name.
    Contains non-deterministic values (histogram timings) — print it to
    stderr, never into experiment stdout. *)

val snapshot_to_trace : unit -> unit
(** Emit one {!Trace} event per registered metric ([source = "metrics"],
    events [counter]/[gauge]/[histogram]).  Counter and gauge values are
    deterministic top-level fields; histogram statistics (timings) go
    under ["nd"].  No-op when no sink is attached. *)
