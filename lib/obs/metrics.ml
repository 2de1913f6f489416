type counter = { cname : string; value : int Atomic.t }
type gauge = { gname : string; gvalue : float Atomic.t }

(* Log-linear buckets over the bits of a double: a positive finite
   sample's bit pattern, shifted right by 45, keeps its 11 exponent bits
   and the top 7 mantissa bits, so each power of two (a binade) splits
   into 128 equal sub-buckets and a bucket's lower bound is within
   1/128 of every sample in it.  (Subnormals, below 2^-1022, share
   binade 0 in 128 linear buckets.)  Each binade's row of counters is
   allocated on its first sample, so memory is bounded by the binades in
   use, whatever the sample count. *)
let sub_buckets = 128
let binades = 2047 (* exponent fields of the finite doubles *)

type histogram = {
  hname : string;
  hlock : Mutex.t;
  mutable count : int;
  mutable below : int;  (* samples that are not positive: <= 0, -inf, nan *)
  rows : int array array;  (* per binade; [||] until its first sample *)
  stats : float array;  (* sum, min, max (in [Float.compare] order) *)
}

(* One process-local registry.  Metric handles are created (or found)
   under [registry_lock]; after that, counters and gauges update via
   atomics and each histogram has its own lock, so recording from pool
   worker domains never contends on the registry itself. *)
let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32 (* guarded by registry_lock *)
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16 (* guarded by registry_lock *)
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16 (* guarded by registry_lock *)

let registered table name make =
  Mutex.lock registry_lock;
  let metric =
    match Hashtbl.find_opt table name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.replace table name m;
      m
  in
  Mutex.unlock registry_lock;
  metric

(* ---- counters ------------------------------------------------------- *)

let counter name =
  registered counters name (fun () ->
      { cname = name; value = Atomic.make 0 })

let add c by = ignore (Atomic.fetch_and_add c.value by)
let incr c = add c 1
let counter_value c = Atomic.get c.value
let counter_name c = c.cname

(* ---- gauges --------------------------------------------------------- *)

let gauge name =
  registered gauges name (fun () ->
      { gname = name; gvalue = Atomic.make 0.0 })

let set g v = Atomic.set g.gvalue v
let gauge_value g = Atomic.get g.gvalue
let gauge_name g = g.gname

(* ---- histograms ----------------------------------------------------- *)

let histogram name =
  registered histograms name (fun () ->
      {
        hname = name;
        hlock = Mutex.create ();
        count = 0;
        below = 0;
        rows = Array.make binades [||];
        stats = [| 0.0; Float.nan; Float.nan |];
      })

let bucket_index v =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 45)

let observe h v =
  Mutex.lock h.hlock;
  let stats = h.stats in
  h.count <- h.count + 1;
  stats.(0) <- stats.(0) +. v;
  if h.count = 1 then begin
    stats.(1) <- v;
    stats.(2) <- v
  end
  else begin
    if Float.compare v stats.(1) < 0 then stats.(1) <- v;
    if Float.compare v stats.(2) > 0 then stats.(2) <- v
  end;
  if not (v > 0.0) then h.below <- h.below + 1
  else if v < Float.infinity then begin
    let index = bucket_index v in
    let binade = index / sub_buckets in
    let row =
      match h.rows.(binade) with
      | [||] ->
        let row = Array.make sub_buckets 0 in
        h.rows.(binade) <- row;
        row
      | row -> row
    in
    let sub = index mod sub_buckets in
    row.(sub) <- row.(sub) + 1
  end;
  (* +inf ranks above every bucket *)
  Mutex.unlock h.hlock

let histogram_count h =
  Mutex.lock h.hlock;
  let n = h.count in
  Mutex.unlock h.hlock;
  n

let histogram_sum h =
  Mutex.lock h.hlock;
  let s = h.stats.(0) in
  Mutex.unlock h.hlock;
  s

(* The smallest double in a bucket: [bucket_index] inverted. *)
let lower_bound index =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int index) 45)

(* Nearest-rank over the buckets: the sample at the rank's index lies in
   some bucket, whose lower bound, raised to the minimum, stands for it
   (it cannot exceed the maximum).  Non-positive samples stand as the
   minimum; +inf samples and the top-ranked sample as the exact maximum.
   The index is monotone in [rank] and the bounds are monotone in the
   index, so quantiles are monotone too. *)
let bucketed_quantile h index =
  let low = h.stats.(1) and high = h.stats.(2) in
  if index = h.count - 1 then high
  else if index < h.below then low
  else begin
    let rec walk bucket seen =
      if bucket = binades * sub_buckets then high
      else
        match h.rows.(bucket / sub_buckets) with
        | [||] -> walk (bucket + sub_buckets) seen
        | row ->
          let seen = seen + row.(bucket mod sub_buckets) in
          if index >= seen then walk (bucket + 1) seen
          else
            let bound = lower_bound bucket in
            if Float.compare bound low < 0 then low else bound
    in
    walk 0 h.below
  end

let quantile h rank =
  if not (Float.is_finite rank) || rank < 0.0 || rank > 1.0 then
    invalid_arg "Metrics.quantile: rank must be within [0, 1]";
  Mutex.protect h.hlock (fun () ->
      let n = h.count in
      if n = 0 then invalid_arg "Metrics.quantile: empty histogram";
      let index = int_of_float (Float.round (rank *. float_of_int (n - 1))) in
      bucketed_quantile h (max 0 (min (n - 1) index)))

let histogram_name h = h.hname

(* ---- registry-wide operations --------------------------------------- *)

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g.gvalue 0.0) gauges;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.hlock;
      h.count <- 0;
      h.below <- 0;
      Array.fill h.rows 0 binades [||];
      h.stats.(0) <- 0.0;
      Mutex.unlock h.hlock)
    histograms;
  Mutex.unlock registry_lock

let by_name table =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let fold_counters f init =
  List.fold_left
    (fun acc (name, c) -> f acc name (counter_value c))
    init (by_name counters)

let fold_gauges f init =
  List.fold_left
    (fun acc (name, g) -> f acc name (gauge_value g))
    init (by_name gauges)

let fold_histograms f init =
  List.fold_left (fun acc (name, h) -> f acc name h) init (by_name histograms)

let pp ppf () =
  let live_histograms =
    List.filter (fun (_, h) -> histogram_count h > 0) (by_name histograms)
  in
  Format.fprintf ppf "@[<v>== metrics ==@,";
  (match by_name counters with
  | [] -> ()
  | entries ->
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun (name, c) ->
        Format.fprintf ppf "  %-32s %d@," name (counter_value c))
      entries);
  (match by_name gauges with
  | [] -> ()
  | entries ->
    Format.fprintf ppf "gauges:@,";
    List.iter
      (fun (name, g) ->
        Format.fprintf ppf "  %-32s %g@," name (gauge_value g))
      entries);
  (match live_histograms with
  | [] -> ()
  | entries ->
    Format.fprintf ppf "histograms:%33s%9s%9s%9s%9s@," "count" "mean" "p50"
      "p90" "max";
    List.iter
      (fun (name, h) ->
        let n = histogram_count h in
        Format.fprintf ppf "  %-32s %8d %8.4f %8.4f %8.4f %8.4f@," name n
          (histogram_sum h /. float_of_int n)
          (quantile h 0.5) (quantile h 0.9) (quantile h 1.0))
      entries);
  Format.fprintf ppf "@]"

(* Histogram observations are (almost always) durations, so their
   statistics go under "nd"; counter and gauge values in this codebase
   are deterministic work counts and stay top-level. *)
let snapshot_to_trace () =
  if Trace.enabled () then begin
    List.iter
      (fun (name, c) ->
        Trace.emit ~source:"metrics" ~event:"counter"
          [ ("name", Json.String name); ("value", Json.Int (counter_value c)) ])
      (by_name counters);
    List.iter
      (fun (name, g) ->
        Trace.emit ~source:"metrics" ~event:"gauge"
          [ ("name", Json.String name); ("value", Json.Float (gauge_value g)) ])
      (by_name gauges);
    List.iter
      (fun (name, h) ->
        let n = histogram_count h in
        if n > 0 then
          Trace.emit ~source:"metrics" ~event:"histogram"
            ~nd:
              [
                ("sum", Json.Float (histogram_sum h));
                ("p50", Json.Float (quantile h 0.5));
                ("p90", Json.Float (quantile h 0.9));
                ("max", Json.Float (quantile h 1.0));
              ]
            [ ("name", Json.String name); ("count", Json.Int n) ])
      (by_name histograms)
  end
