module Rng = Vqc_rng.Rng

(* The flat Monte-Carlo chunk kernel.

   The list-shaped trial loop in [Monte_carlo] spends its time boxing:
   every Bernoulli draw loads a boxed float probability, runs the boxed
   Int64 xoshiro step ([Rng.uint64] stores each state word back into a
   mutable record field, which allocates under the Closure backend), and
   converts the draw to a float to compare.  This kernel runs the same
   trial walk with none of that:

   - the failure table keeps only the events that draw, as one integer
     threshold each, closed by a -1 sentinel (below);
   - the xoshiro256** state lives in four local [int64] refs, which
     ocamlopt turns into unboxed mutable variables held in registers, so
     a draw neither allocates nor loads or stores generator state;
   - the per-draw test is a native int compare.

   One flat loop over the chunk's draws does one table load, one
   xoshiro step and one compare per draw; a trial ends at its first
   failure or at the sentinel, and the next one restarts at slot 0.

   Bit-identity with the reference loop.  [Rng.bernoulli t p] is
   [p <= 0 -> false] and [p >= 1 -> true] with {e no} generator draw,
   else one draw [k] of 53 bits and the test [k * 2^-53 < p].  Both
   [Int64.to_float k] and the [2^-53] scaling are exact, so the float
   test decides exactly the real inequality [k < p * 2^53].  [p * 2^53]
   is itself an exact float product (a power-of-two scaling of a double
   in (0, 1) neither rounds nor overflows), [Float.ceil] is exact, and
   the result is an integer at most [2^53], so

     k < p * 2^53   <=>   k < ceil(p * 2^53)   (integers)

   — the threshold.  A NaN probability draws and never fires
   ([float t < nan] is false), which threshold 0 encodes.  The table
   drops what draws nothing:

   - a [p <= 0] event neither draws nor fails, so removing it leaves
     the draw stream and the outcome unchanged;
   - the first [p >= 1] event fails every trial that reaches it without
     drawing, so nothing after it is ever visited: the table stops
     there, and reaching the sentinel is then a failure instead of a
     success.

   The reference counts every {e visited} event as a draw (the
   telemetry), including the dropped ones.  A trial that fails at the
   event with original index [j] has visited [j + 1] events, so
   [visited] stores [j + 1] beside each kept threshold; the sentinel's
   slot stores the count of a trial that reaches it — the index of the
   always-firing event plus one, or [events] if there is none.  Hence
   the draw stream, the success count and the draw count all match the
   reference bit for bit, and {!run_chunk} finally writes the four
   registers back into the caller's generator, leaving it exactly as if
   the reference loop had advanced it. *)

type table = {
  thresholds : int array;
      (* one per drawing event, in walk order: the event fires iff the
         next 53-bit draw is < t (t in [0, 2^53]); then -1, the sentinel *)
  visited : int array;
      (* parallel to [thresholds]: the reference walk's visit count when
         a trial ends at that slot *)
  survives : int;  (* 1 if a trial reaching the sentinel succeeds, else 0 *)
  events : int;
}

let threshold p =
  if Float.is_nan p then 0 else int_of_float (Float.ceil (p *. 0x1.0p53))

let of_probabilities probabilities =
  let events = Array.length probabilities in
  (* kept (threshold, visit count) pairs, in reverse *)
  let rec scan i kept =
    if i = events then (kept, events, 1)
    else
      let p = probabilities.(i) in
      if p >= 1.0 then (kept, i + 1, 0)
      else if p <= 0.0 then scan (i + 1) kept
      else scan (i + 1) ((threshold p, i + 1) :: kept)
  in
  let kept, sentinel_visited, survives = scan 0 [] in
  let slots = List.rev ((-1, sentinel_visited) :: kept) in
  {
    thresholds = Array.of_list (List.map fst slots);
    visited = Array.of_list (List.map snd slots);
    survives;
    events;
  }

let events table = table.events

let run_chunk { thresholds; visited; survives; _ } rng count =
  let words = Rng.dump rng in
  let s0 = ref words.(0) in
  let s1 = ref words.(1) in
  let s2 = ref words.(2) in
  let s3 = ref words.(3) in
  let successes = ref 0 in
  let draws = ref 0 in
  let remaining = ref count in
  let slot = ref 0 in
  while !remaining > 0 do
    let t = Array.unsafe_get thresholds !slot in
    if t < 0 then begin
      (* the sentinel: the trial ran out of drawing events *)
      draws := !draws + Array.unsafe_get visited !slot;
      successes := !successes + survives;
      decr remaining;
      slot := 0
    end
    else begin
      (* xoshiro256** step over the register-resident state *)
      let r5 = Int64.mul !s1 5L in
      let result =
        Int64.mul
          (Int64.logor (Int64.shift_left r5 7)
             (Int64.shift_right_logical r5 57))
          9L
      in
      let tmp = Int64.shift_left !s1 17 in
      let s2x = Int64.logxor !s2 !s0 in
      let s3x = Int64.logxor !s3 !s1 in
      s0 := Int64.logxor !s0 s3x;
      s1 := Int64.logxor !s1 s2x;
      s2 := Int64.logxor s2x tmp;
      s3 :=
        Int64.logor (Int64.shift_left s3x 45)
          (Int64.shift_right_logical s3x 19);
      if Int64.to_int (Int64.shift_right_logical result 11) < t then begin
        draws := !draws + Array.unsafe_get visited !slot;
        decr remaining;
        slot := 0
      end
      else incr slot
    end
  done;
  Rng.load rng [| !s0; !s1; !s2; !s3 |];
  (!successes, !draws)
