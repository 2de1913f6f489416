(* The benchmark's inputs: the key set W, each workload's table of
   distinct request lines, and the seeded streams of indexes into that
   table.  Circuit names, policy labels and inline QASM texts are owned
   here (the texts are committed fixtures), so a change to the program
   under test cannot change what the benchmark sends. *)

(* W: Catalog.all without rnd-SD/rnd-LD (their cold compiles take
   seconds under the A* policies), times every policy label. *)
let circuits =
  [|
    "alu"; "bv-16"; "bv-20"; "qft-12"; "qft-14"; "bv-3"; "bv-4"; "TriSwap";
    "GHZ-3"; "alu-10"; "bv-10"; "qft-10"; "dj-8"; "grover-2"; "grover-3";
    "w-6"; "qaoa-12";
  |]

let policies =
  [|
    "baseline"; "vqm"; "vqa+vqm"; "vqa+vqm+readout"; "vqm+bridge"; "sabre";
    "noise-sabre";
  |]

let keys = Array.length circuits * Array.length policies
let circuit_of k = circuits.(k / Array.length policies)
let policy_of k = policies.(k mod Array.length policies)

(* Every server and replay uses the same calibration history, seed 2:
   52 days wherever epochs move, vqc-serve's default 8 elsewhere (day 0
   is the same day in both). *)
let calibration_seed = 2
let days = 52
let short_days = 8
let precisions = [| 1e-2; 5e-3; 3e-3 |]
let drift_threshold = 0.05

(* The committed drift expectations cover this many laps; a run that
   gets through all of them ends its timed phase early. *)
let drift_laps = 312
let default_seed = 1

type line = {
  text : string;  (** the request, newline-terminated *)
  key : int;  (** index into W; -1 on a control line *)
  epoch : int;  (** pinned epoch, else 0 *)
  inline : bool;
  estimate : bool;
}

let control l = l.key < 0

type t = {
  name : string;
  jobs : int;
  days : int;  (** calibration epochs the server synthesizes *)
  drift : bool;  (** the server gets [--drift-threshold 0.05] *)
  connections : int;
  lines : line array;
  warmup : int array;  (** lines every connection's session holds before timing *)
  setups : int;  (** set-ups per measured run; setup_s is their median *)
  stream : int -> unit -> int option;
      (** [stream conn] is a fresh copy of that connection's timed
          stream: the next line index, [None] at its end *)
  replay_lines : int;
      (** timed lines per connection the in-process replay covers *)
  reference : bool;
      (** the timed phase is reported in reference seconds (speed.ml),
          else in wall seconds *)
}

let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let fixture_path ~dir name = Filename.concat dir (Filename.concat "fixtures" (name ^ ".qasm"))

let read_fixture ~dir name =
  In_channel.with_open_bin (fixture_path ~dir name) In_channel.input_all

let named ?epoch ?estimate k =
  let fields =
    [ ("workload", json_string (circuit_of k)); ("policy", json_string (policy_of k)) ]
    @ (match epoch with Some e -> [ ("epoch", string_of_int e) ] | None -> [])
    @
    match estimate with
    | Some (precision, mc_seed) ->
      [ ("precision", Printf.sprintf "%g" precision); ("mc_seed", string_of_int mc_seed) ]
    | None -> []
  in
  {
    text =
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
      ^ "}\n";
    key = k;
    epoch = Option.value epoch ~default:0;
    inline = false;
    estimate = Option.is_some estimate;
  }

let inline ~qasm k =
  {
    text =
      Printf.sprintf "{\"qasm\":%s,\"policy\":%s}\n"
        (json_string qasm.(k / Array.length policies))
        (json_string (policy_of k));
    key = k;
    epoch = 0;
    inline = true;
    estimate = false;
  }

let advance =
  { text = "{\"op\":\"advance_epoch\"}\n"; key = -1; epoch = 0; inline = false; estimate = false }

(* One independent generator per (workload, connection, purpose), all a
   pure function of the workload seed. *)
let rng ~seed ~tag conn = Random.State.make [| seed; tag; conn |]

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let of_array a =
  let pos = ref 0 in
  fun () ->
    if !pos >= Array.length a then None
    else begin
      incr pos;
      Some a.(!pos - 1)
    end

let all_keys = Array.init keys Fun.id

(* A warm set-up (spawn and warm W) takes about 0.5 s, a cold one (spawn
   only) about 0.02 s; enough of each that their median is steady. *)
let warm_setups = 11
let cold_setups = 81

(* hit: both connections warm every key of W, then draw keys at random,
   half by name and half as inline QASM, so every request is an L1 hit. *)
let hit ~dir ~seed =
  let qasm = Array.map (read_fixture ~dir) circuits in
  let lines =
    Array.append (Array.init keys (fun k -> named k)) (Array.init keys (inline ~qasm))
  in
  let stream conn =
    let st = rng ~seed ~tag:1 conn in
    fun () ->
      let k = Random.State.int st keys in
      Some (if Random.State.bool st then keys + k else k)
  in
  {
    name = "hit";
    jobs = 1;
    days = short_days;
    drift = false;
    connections = 2;
    lines;
    warmup = all_keys;
    setups = warm_setups;
    stream;
    replay_lines = 10_000;
    reference = true;
  }

(* miss: every (key, epoch) of W x 52 days once per pass, epochs pinned,
   connection 0 taking the even epochs and connection 1 the odd ones,
   keys in seeded order within each epoch.  No warm-up: every request is
   a cold compile against a fresh calibration.  A pass is 6188 requests;
   by the time a stream starts its next pass, its first keys have left
   the L1, the store and the 8-device cost-table cache, so they compile
   cold again. *)
let miss ~seed =
  let lines =
    Array.init (keys * days) (fun i -> named ~epoch:(i / keys) (i mod keys))
  in
  let stream conn =
    let st = rng ~seed ~tag:2 conn in
    let epochs = List.filter (fun e -> e mod 2 = conn) (List.init days Fun.id) in
    let pass () =
      Array.concat
        (List.map (fun e -> Array.map (fun k -> (e * keys) + k) (permutation st keys)) epochs)
    in
    let current = ref (pass ()) and pos = ref 0 in
    fun () ->
      if !pos = Array.length !current then begin
        current := pass ();
        pos := 0
      end;
      incr pos;
      Some !current.(!pos - 1)
  in
  {
    name = "miss";
    jobs = 1;
    days;
    drift = false;
    connections = 2;
    lines;
    warmup = [||];
    setups = cold_setups;
    stream;
    replay_lines = 700;
    reference = false;
  }

(* estimate: both connections warm W, then every request is a hit
   carrying an estimate rider; each (key, precision) line has its own
   seeded mc_seed.  Each session runs its trials inline (--jobs 1), so
   the two sessions keep both vCPUs busy.  One session fanning its
   trials over a 2-job pool moved its req_per_s by 8% over three runs
   (23% in wall time), and at times three times as far as the speed
   readings; two inline sessions, run between those three, moved it by
   1%. *)
let estimate ~seed =
  let st = rng ~seed ~tag:3 (-1) in
  let riders =
    Array.init
      (keys * Array.length precisions)
      (fun i ->
        let k = i / Array.length precisions in
        let precision = precisions.(i mod Array.length precisions) in
        named ~estimate:(precision, 1 + Random.State.int st 0x3FFFFFFF) k)
  in
  let lines = Array.append (Array.init keys (fun k -> named k)) riders in
  let stream conn =
    let st = rng ~seed ~tag:4 conn in
    fun () -> Some (keys + Random.State.int st (Array.length riders))
  in
  {
    name = "estimate";
    jobs = 1;
    days = short_days;
    drift = false;
    connections = 2;
    lines;
    warmup = all_keys;
    setups = warm_setups;
    stream;
    replay_lines = 200;
    reference = true;
  }

(* drift: warm W, then laps of one advance_epoch followed by every key
   of W once in seeded order, each by name or as inline QASM as in hit.
   With named requests only, p99_ms fell on the fingerprint of named
   qft-14 (about 0.8 ms) and read 1.3 to 1.9 ms in three runs of ten
   whose host was slow; the inline half puts it on the parse of inline
   qft-14, as in hit. *)
let drift ~dir ~seed =
  let qasm = Array.map (read_fixture ~dir) circuits in
  let lines =
    Array.concat [ Array.init keys (fun k -> named k); Array.init keys (inline ~qasm); [| advance |] ]
  in
  let stream conn =
    let st = rng ~seed ~tag:5 conn in
    let lap _ =
      let order = permutation st keys in
      Array.append [| 2 * keys |] (Array.map (fun k -> if Random.State.bool st then keys + k else k) order)
    in
    of_array (Array.concat (List.init drift_laps lap))
  in
  {
    name = "drift";
    jobs = 2;
    days;
    drift = true;
    connections = 1;
    lines;
    warmup = all_keys;
    setups = warm_setups;
    stream;
    replay_lines = 12 * (keys + 1);
    reference = false;
  }

let names = [ "hit"; "miss"; "estimate"; "drift" ]

let make ~dir ~seed = function
  | "hit" -> hit ~dir ~seed
  | "miss" -> miss ~seed
  | "estimate" -> estimate ~seed
  | "drift" -> drift ~dir ~seed
  | name -> invalid_arg ("unknown workload " ^ name)

(* Flags beyond --tcp 0 --batch 1. *)
let server_flags w =
  [
    "--seed"; string_of_int calibration_seed; "--days"; string_of_int w.days;
    "--jobs"; string_of_int w.jobs;
  ]
  @ if w.drift then [ "--drift-threshold"; Printf.sprintf "%g" drift_threshold ] else []
