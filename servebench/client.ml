(* The measured side: vqc-serve as a child process with its own heap,
   driven by closed-loop connections (at most two, window 1: each sends
   its next line only after reading the response to the previous one).
   This is the benchmark's own client; it shares no code with the
   program's load generator or JSON layer. *)

type server = {
  pid : int;
  port : int;
  stderr : Unix.file_descr;
}

let children = ref []

(* SIGKILL, then reap: the server has no shutdown op, and a benchmark
   that dies half-way must not leave one running. *)
let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let () =
  at_exit (fun () -> List.iter kill_pid !children);
  (* so that at_exit runs when the benchmark itself is stopped *)
  List.iter (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

let stop server =
  kill_pid server.pid;
  children := List.filter (( <> ) server.pid) !children;
  Unix.close server.stderr

(* The first stderr line, within [timeout] seconds. *)
let first_line fd ~timeout =
  let b = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then failwith "vqc-serve did not announce its port";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
      if Unix.read fd byte 0 1 = 0 then failwith "vqc-serve exited before listening"
      else if Bytes.get byte 0 = '\n' then Buffer.contents b
      else begin
        Buffer.add_bytes b byte;
        go ()
      end
  in
  go ()

let spawn ~exe flags =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (exe :: "--tcp" :: "0" :: "--batch" :: "1" :: flags) in
  let pid = Unix.create_process exe argv null null err_w in
  children := pid :: !children;
  Unix.close err_w;
  Unix.close null;
  let line = first_line err_r ~timeout:30.0 in
  let port = Scanf.sscanf line "vqc-serve: listening on 127.0.0.1:%d" Fun.id in
  { pid; port; stderr = err_r }

(* The server's peak resident set (VmHWM), in kB. *)
let peak_rss_kb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.get

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* a server that stops answering fails the run instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

let close conn = close_in_noerr conn.ic

let send conn text =
  let n = String.length text in
  let rec go off = if off < n then go (off + Unix.write_substring conn.fd text off (n - off)) in
  go 0

(* One response as the check needs it; the bytes themselves are dropped
   at once so the client's heap stays small while it measures. *)
type sample = {
  line : int;
  lap : int;  (** drift lap the line was sent in; -1 before the first advance *)
  latency : float;  (** wall seconds from writing the line to reading the response *)
  slice : int;  (** timed slice the line was sent in; -1 in a warm-up *)
  digest : string;  (** of the nd-stripped bytes, or "" when not "ok" *)
  hit : bool;  (** the response's nd.cache reads "hit" *)
}

type log = {
  mutable samples : sample array;
  mutable n : int;
}

let new_log () = { samples = [||]; n = 0 }

let record log sample =
  if log.n = Array.length log.samples then
    log.samples <- Array.append log.samples (Array.make (max 1024 log.n) sample);
  log.samples.(log.n) <- sample;
  log.n <- log.n + 1

let samples log = Array.sub log.samples 0 log.n

(* Send lines until the stream ends or [deadline] passes; the request in
   flight at the deadline still completes.  [lap] counts the drift laps
   sent so far.  [false] once the stream has ended. *)
let drive conn (w : Wl.t) ~next ~deadline ~lap ~slice log =
  let rec go () =
    if Unix.gettimeofday () >= deadline then true
    else
      match next () with
      | None -> false
      | Some i ->
        let line = w.Wl.lines.(i) in
        if Wl.control line then incr lap;
        let start = Unix.gettimeofday () in
        send conn line.Wl.text;
        let response = input_line conn.ic in
        let latency = Unix.gettimeofday () -. start in
        record log
          {
            line = i;
            lap = !lap;
            latency;
            slice;
            digest = (if Expect.ok response then Expect.digest response else "");
            hit = Expect.cache_hit response;
          };
        go ()
  in
  go ()

type run = {
  setups : (float * float) list;
      (** per server: wall seconds from spawn to ready, and the speed
          reading taken just before *)
  warmup : sample array;  (** every set-up's warm-up responses *)
  timed : sample array array;  (** per connection *)
  slices : (float * float) array;
      (** per timed slice: wall seconds, and the mean of the speed
          readings just before and just after it *)
  peak_rss_kb : int;
}

(* [f 0] on this domain and [f 1] … [f (n - 1)] on their own. *)
let on_domains n f =
  let others = List.init (n - 1) (fun c -> Domain.spawn (fun () -> f (c + 1))) in
  let first = f 0 in
  Array.of_list (first :: List.map Domain.join others)

(* Warm every connection's session with all of [w.warmup], on both
   cores.  First two connections share one queue of the lines, so each
   line is sent once and compiled once; then each connection sends the
   lines the other one sent, which the shared store answers.  A
   one-connection workload opens a second connection for the first
   phase only. *)
let warm server (w : Wl.t) conns =
  let pair = if Array.length conns = 2 then conns else [| conns.(0); connect server.port |] in
  let queue = Atomic.make 0 in
  let next () =
    let i = Atomic.fetch_and_add queue 1 in
    if i < Array.length w.Wl.warmup then Some w.Wl.warmup.(i) else None
  in
  let drive_all conn next =
    let log = new_log () in
    ignore (drive conn w ~next ~deadline:infinity ~lap:(ref (-1)) ~slice:(-1) log);
    samples log
  in
  let first = on_domains 2 (fun c -> drive_all pair.(c) next) in
  if Array.length conns = 1 then close pair.(1);
  let sent c = Array.map (fun s -> s.line) first.(c) in
  let second =
    on_domains (Array.length conns) (fun c -> drive_all conns.(c) (Wl.of_array (sent (1 - c))))
  in
  Array.concat (Array.to_list first @ Array.to_list second)

let setup ~exe (w : Wl.t) =
  let start = Unix.gettimeofday () in
  let server = spawn ~exe (Wl.server_flags w) in
  let conns = Array.init w.Wl.connections (fun _ -> connect server.port) in
  let warmed = if Array.length w.Wl.warmup = 0 then [||] else warm server w conns in
  (server, conns, warmed, Unix.gettimeofday () -. start)

(* The timed phase runs in slices of this many wall seconds.  Between
   two slices every connection is idle, and a speed reading is taken
   with the server stopped. *)
let slice_seconds = 1.0

(* Set up [w.setups] times, each right after a speed reading: half of
   them before the timed phase, the last of which serves it, and the
   rest after it, so that set-up time is sampled across the whole run
   instead of in one burst. *)
let run ~exe ~seconds (w : Wl.t) =
  let setups = ref [] and warm = ref [] in
  let prepare () =
    let reading = Speed.reading () in
    let server, conns, warmed, t = setup ~exe w in
    setups := (t, reading) :: !setups;
    warm := warmed :: !warm;
    (server, conns)
  in
  let discard (server, conns) =
    Array.iter close conns;
    stop server
  in
  let before = (w.Wl.setups + 1) / 2 in
  for _ = 2 to before do
    discard (prepare ())
  done;
  let server, conns = prepare () in
  let n = Array.length conns in
  let logs = Array.map (fun _ -> new_log ()) conns in
  let streams = Array.init n w.Wl.stream and laps = Array.init n (fun _ -> ref (-1)) in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec slices k reading acc =
    let start = Unix.gettimeofday () in
    if start >= deadline then acc
    else begin
      let until = Float.min deadline (start +. slice_seconds) in
      let live =
        on_domains n (fun c ->
            drive conns.(c) w ~next:streams.(c) ~deadline:until ~lap:laps.(c) ~slice:k logs.(c))
      in
      let wall = Unix.gettimeofday () -. start in
      let next = Speed.reading ~pause:server.pid () in
      let acc = (wall, (reading +. next) /. 2.0) :: acc in
      if Array.for_all Fun.id live then slices (k + 1) next acc else acc
    end
  in
  let slices = slices 0 (Speed.reading ~pause:server.pid ()) [] in
  let peak = peak_rss_kb server.pid in
  discard (server, conns);
  for _ = before + 1 to w.Wl.setups do
    discard (prepare ())
  done;
  {
    setups = List.rev !setups;
    warmup = Array.concat (List.rev !warm);
    timed = Array.map samples logs;
    slices = Array.of_list (List.rev slices);
    peak_rss_kb = peak;
  }
