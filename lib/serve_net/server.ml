module Service = Vqc_service.Service
module Epoch = Vqc_service.Epoch
module Pool = Vqc_engine.Pool
module Metrics = Vqc_obs.Metrics
module Json = Vqc_obs.Json
module Diagnostic = Vqc_diag.Diagnostic

type config = {
  port : int;
  clients_max : int;
  session : Session.config;
  service : Service.config;
  store_capacity : int;
}

let default_config =
  {
    port = 0;
    clients_max = 64;
    session = Session.default_config;
    service = Service.default_config;
    store_capacity = 1024;
  }

(* Session domains are tracked so they can be reaped (joined) as they
   finish — the runtime caps live domains, so a long-lived server must
   recycle the slots of departed clients. *)
type registry = {
  reg_lock : Mutex.t;
  mutable live : (Domain.id * unit Domain.t) list;
      (** guarded by reg_lock *)
  mutable done_ids : Domain.id list;  (** guarded by reg_lock *)
}

type t = {
  listener : Unix.file_descr;
  server_port : int;
  server_config : config;
  epoch : Epoch.t;
  pool : Pool.t;
  store : Service.store;
  stopping : bool Atomic.t;
  active : int Atomic.t;
  registry : registry;
  mutable accept_thread : Thread.t option;
  connections_total : Metrics.counter;
  rejected_total : Metrics.counter;
  sessions_gauge : Metrics.gauge;
}

let port t = t.server_port

let locked_registry registry f =
  Mutex.lock registry.reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.reg_lock) f

let register t domain =
  locked_registry t.registry (fun () ->
      t.registry.live <- (Domain.get_id domain, domain) :: t.registry.live)

let mark_done t id =
  locked_registry t.registry (fun () ->
      t.registry.done_ids <- id :: t.registry.done_ids)

(* Join every session domain that has announced completion.  Runs on
   the accept path (before each spawn) and in [stop]. *)
let reap t =
  let finished =
    locked_registry t.registry (fun () ->
        let finished, live =
          List.partition
            (fun (id, _) -> List.mem id t.registry.done_ids)
            t.registry.live
        in
        t.registry.live <- live;
        t.registry.done_ids <-
          List.filter
            (fun id -> not (List.mem_assoc id finished))
            t.registry.done_ids;
        finished)
  in
  List.iter (fun (_, domain) -> Domain.join domain) finished

(* A refused connection still gets one well-formed response line — the
   same "rejected" shape the admission queue uses, with the VQC131
   server-capacity code — before the socket closes, so clients can tell
   load-shedding from a network failure. *)
let reject_connection t fd =
  Metrics.incr t.rejected_total;
  let line =
    Json.to_string
      (Json.Obj
         [
           ("status", Json.String "rejected");
           ("reason", Json.String "server_full");
           ("code", Json.String Diagnostic.code_server_full);
           ("limit", Json.Int t.server_config.clients_max);
         ])
    ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run_session t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (* [ic] and [oc] share one descriptor: it is closed exactly once,
         through [oc], after flushing what still can be.  Closing [ic]
         too would close the number a second time, and by then it may
         belong to a connection accepted meanwhile. *)
      close_out_noerr oc;
      Atomic.decr t.active;
      Metrics.set t.sessions_gauge (float_of_int (Atomic.get t.active));
      mark_done t (Domain.self ()))
    (fun () ->
      (* each session is a full service of its own — private plan
         cache, private admission queue, private epoch cursor — over
         the server's shared pool and store *)
      let service =
        Service.create ~config:t.server_config.service ~pool:t.pool
          ~store:t.store
          (Epoch.fork t.epoch)
      in
      ignore (Session.run ~config:t.server_config.session service ic oc))

let spawn_session t fd =
  Metrics.incr t.connections_total;
  Atomic.incr t.active;
  Metrics.set t.sessions_gauge (float_of_int (Atomic.get t.active));
  match Domain.spawn (fun () -> run_session t fd) with
  | domain -> register t domain
  | exception Failure _ ->
    (* domain limit: shed the connection like a clients_max overflow *)
    Atomic.decr t.active;
    Metrics.set t.sessions_gauge (float_of_int (Atomic.get t.active));
    reject_connection t fd

let rec accept_loop t =
  match Unix.accept t.listener with
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
  | exception Unix.Unix_error (_, _, _) ->
    () (* listener closed under us: stopping *)
  | fd, _ ->
    if Atomic.get t.stopping then begin
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      reap t;
      if Atomic.get t.active >= t.server_config.clients_max then
        reject_connection t fd
      else spawn_session t fd;
      accept_loop t
    end

let start ?(config = default_config) epoch =
  if config.clients_max < 1 then
    invalid_arg
      (Printf.sprintf "Server.start: clients_max must be >= 1 (got %d)"
         config.clients_max);
  if config.port < 0 || config.port > 65535 then
    invalid_arg
      (Printf.sprintf "Server.start: port out of range (got %d)" config.port);
  (* a client that disappears mid-write must surface as an error on the
     session, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener
       (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
     Unix.listen listener 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e);
  let server_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> assert false
  in
  let t =
    {
      listener;
      server_port;
      server_config = config;
      epoch;
      pool = Pool.create ~jobs:config.service.Service.jobs ();
      store = Service.shared_store ~capacity:config.store_capacity ();
      stopping = Atomic.make false;
      active = Atomic.make 0;
      registry =
        { reg_lock = Mutex.create (); live = []; done_ids = [] };
      accept_thread = None;
      connections_total = Metrics.counter "serve.net.connections";
      rejected_total = Metrics.counter "serve.net.rejected";
      sessions_gauge = Metrics.gauge "serve.net.sessions";
    }
  in
  (* The accept loop is a systhread of the calling domain, not a domain
     of its own.  Under OCaml 5 every minor collection stops every
     domain, idle ones included, so an accept domain parked in [accept]
     would still be woken for each collection of every session; a
     thread blocked in [accept] has released its domain's lock and
     costs the collections nothing. *)
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let wait t = Option.iter Thread.join t.accept_thread

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake the accept loop with a throwaway connection so it observes
       the stopping flag *)
    (let wake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try
        Unix.connect wake
          (Unix.ADDR_INET (Unix.inet_addr_loopback, t.server_port))
      with Unix.Unix_error _ -> ());
     try Unix.close wake with Unix.Unix_error _ -> ());
    (match t.accept_thread with
    | Some thread ->
      Thread.join thread;
      t.accept_thread <- None
    | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* sessions end when their clients hang up; wait for the stragglers *)
    let live =
      locked_registry t.registry (fun () ->
          let live = t.registry.live in
          t.registry.live <- [];
          t.registry.done_ids <- [];
          live)
    in
    List.iter (fun (_, domain) -> Domain.join domain) live;
    Pool.shutdown t.pool
  end
