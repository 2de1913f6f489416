(* The in-process side of the benchmark: the same request lines driven
   through the layers' public functions, one Service per connection over
   one shared pool and store, as vqc-serve's TCP front end builds them.
   Used to generate the committed expectations, to compute expectations
   the tables do not cover, and for the traced per-layer replay. *)

module Service = Vqc_service.Service
module Protocol = Vqc_service.Protocol
module Epoch = Vqc_service.Epoch
module Pool = Vqc_engine.Pool
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies

(* vqc-serve's build_epochs for a synthetic history *)
let epochs days =
  Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo
    (History.generate ~days ~seed:Wl.calibration_seed
       ~coupling:Topologies.ibm_q20_tokyo 20)

let config (w : Wl.t) =
  {
    Service.default_config with
    Service.jobs = w.Wl.jobs;
    drift =
      (if w.Wl.drift then Some { Vqc_drift.Retention.threshold = Wl.drift_threshold }
       else None);
  }

type sessions = {
  pool : Pool.t;
  services : Service.t array;
}

(* vqc-serve's defaults: one shard, a 1024-entry shared store *)
let store_capacity = 1024

let open_sessions (w : Wl.t) =
  (* fresh devices give fresh cost tables, so nothing a previous replay
     left in the router's layer memo can hit; clearing it keeps its
     wholesale resets where a fresh server would have them *)
  Vqc_mapper.Router.memo_clear ();
  let epoch_table = epochs w.Wl.days in
  let pool = Pool.create ~jobs:w.Wl.jobs () in
  let store = Service.shared_store ~capacity:store_capacity () in
  {
    pool;
    services =
      Array.init w.Wl.connections (fun _ ->
          Service.create ~config:(config w) ~pool ~store
            (Epoch.fork epoch_table));
  }

let close_sessions s = Pool.shutdown s.pool

(* ---- spans ---------------------------------------------------------- *)

let span_names =
  [|
    "session.request"; "service.parse"; "service.submit"; "service.flush";
    "service.advance_epoch"; "service.render";
  |]

let request_span = 0
let parse_span = 1
let submit_span = 2
let flush_span = 3
let advance_span = 4
let render_span = 5

(* One connection's spans, kept in memory until the run ends. *)
type spans = {
  conn : int;
  mutable n : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable seq : int array;
}

let new_spans conn =
  let cap = 1024 in
  {
    conn;
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap 0;
    seq = Array.make cap 0;
  }

let grow a fill = Array.append a (Array.make (Array.length a) fill)

let open_span s ~name ~parent ~seq =
  if s.n = Array.length s.name then begin
    s.name <- grow s.name 0;
    s.start <- grow s.start 0.0;
    s.stop <- grow s.stop 0.0;
    s.parent <- grow s.parent 0;
    s.seq <- grow s.seq 0
  end;
  let i = s.n in
  s.n <- i + 1;
  s.name.(i) <- name;
  s.parent.(i) <- parent;
  s.seq.(i) <- seq;
  s.start.(i) <- Unix.gettimeofday ();
  i

let close_span s i = s.stop.(i) <- Unix.gettimeofday ()

let write_spans oc s =
  for i = 0 to s.n - 1 do
    Printf.fprintf oc
      "{\"name\":%S,\"conn\":%d,\"seq\":%d,\"id\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
      span_names.(s.name.(i)) s.conn s.seq.(i) i s.parent.(i) s.start.(i) s.stop.(i)
  done

(* ---- the session loop ------------------------------------------------ *)

(* One request line through the calls vqc-serve's session loop makes for
   it under --batch 1: parse, then submit + flush + render for a compile
   request, or advance + render for an advance_epoch line.  With [spans],
   each call is wrapped in a span under one request span. *)
let step ?spans service ~seq text =
  let root =
    match spans with
    | Some s -> open_span s ~name:request_span ~parent:(-1) ~seq
    | None -> -1
  in
  let span name f =
    match spans with
    | None -> f ()
    | Some s ->
      let i = open_span s ~name ~parent:root ~seq in
      let v = f () in
      close_span s i;
      v
  in
  let render response = span render_span (fun () -> Protocol.render response) in
  let line = String.sub text 0 (String.length text - 1) in
  let rendered =
    match span parse_span (fun () -> Protocol.parse_line line) with
    | Ok (Protocol.Compile request) -> (
      match span submit_span (fun () -> Service.submit service request) with
      | Ok () -> List.map render (span flush_span (fun () -> Service.flush service))
      | Error reason -> [ render (Protocol.Rejected { id = request.Protocol.id; reason }) ])
    | Ok (Protocol.Control Protocol.Advance_epoch) ->
      let epoch, migration =
        span advance_span (fun () -> Service.advance_epoch service)
      in
      [
        render
          (Protocol.Control_ack
             { op = "advance_epoch"; epoch; migration = Some migration });
      ]
    | Ok (Protocol.Control _) | Error _ ->
      failwith "servebench sends only compile and advance_epoch lines"
  in
  Option.iter (fun s -> close_span s root) spans;
  match rendered with
  | [ response ] -> response
  | _ -> failwith "servebench: expected one response per line under batch 1"

(* The integer member [name] of a rendered response. *)
let int_field name response =
  let marker = Printf.sprintf "\"%s\":" name in
  let m = String.length marker in
  let rec find i = if String.sub response i m = marker then i + m else find (i + 1) in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length response && response.[!stop] >= '0' && response.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub response start (!stop - start))

(* ---- expectations ---------------------------------------------------- *)

(* Digests of the estimate lines [indexes] of [w], from a fresh service. *)
let estimate_digests (w : Wl.t) indexes =
  let s = open_sessions w in
  Fun.protect
    ~finally:(fun () -> close_sessions s)
    (fun () ->
      List.map
        (fun i -> (i, Expect.digest (step s.services.(0) ~seq:0 w.Wl.lines.(i).Wl.text)))
        indexes)

let regen ~dir =
  (* fixtures are inputs: written once, never overwritten *)
  Array.iter
    (fun c ->
      let path = Wl.fixture_path ~dir c in
      if not (Sys.file_exists path) then
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              (Vqc_circuit.Qasm.to_string (Vqc_workloads.Catalog.find c).Vqc_workloads.Catalog.circuit)))
    Wl.circuits;
  let miss = Wl.miss ~seed:Wl.default_seed in
  let plans = Array.make (Array.length miss.Wl.lines) "" in
  let s = open_sessions miss in
  Array.iter
    (fun line ->
      plans.(Expect.plan_index ~key:line.Wl.key ~epoch:line.Wl.epoch) <-
        Expect.digest (step s.services.(0) ~seq:0 line.Wl.text))
    miss.Wl.lines;
  close_sessions s;
  Printf.eprintf "servebench regen: %d plans\n%!" (Array.length plans);
  (* the drift tables, on two seeds whose lap orders differ *)
  let drift_tables seed =
    let w = Wl.drift ~dir ~seed in
    let s = open_sessions w in
    let service = s.services.(0) in
    Array.iter (fun i -> ignore (step service ~seq:0 w.Wl.lines.(i).Wl.text)) w.Wl.warmup;
    let next = w.Wl.stream 0 in
    let acks = Array.make Wl.drift_laps "" in
    let tables = Array.make_matrix Wl.drift_laps Wl.keys (-1) in
    let lap = ref (-1) in
    let rec go () =
      match next () with
      | None -> ()
      | Some i ->
        let line = w.Wl.lines.(i) in
        let response = step service ~seq:0 line.Wl.text in
        if Wl.control line then begin
          incr lap;
          acks.(!lap) <- Expect.digest response
        end
        else begin
          let epoch = int_field "epoch" response in
          if Expect.digest response <> plans.(Expect.plan_index ~key:line.Wl.key ~epoch) then
            failwith "regen: a drift response is not the plan compiled for its epoch";
          tables.(!lap).(line.Wl.key) <- epoch
        end;
        go ()
    in
    go ();
    close_sessions s;
    (acks, tables)
  in
  let acks, tables = drift_tables Wl.default_seed in
  Printf.eprintf "servebench regen: drift tables\n%!";
  if drift_tables (Wl.default_seed + 1) <> (acks, tables) then
    failwith "regen: drift responses depend on the order of requests within a lap";
  let est = Wl.estimate ~seed:Wl.default_seed in
  let riders = List.init (Array.length est.Wl.lines - Wl.keys) (fun i -> Wl.keys + i) in
  let estimates = Array.of_list (List.map snd (estimate_digests est riders)) in
  Expect.save ~dir { Expect.plans; drift_acks = acks; drift_epochs = tables; estimates }
