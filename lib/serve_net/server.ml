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

(* A host is a domain that runs session systhreads.  Host 0 is the
   domain that called [start]: the accept thread, its neighbour there,
   creates host 0's sessions directly.  Only code running on a domain
   can create a thread there, so a spare host (a spawned domain) runs a
   dispatcher thread that turns the descriptors handed to its mailbox
   into sessions.  A spare exits as soon as it holds no session and its
   mailbox is empty: under OCaml 5 every minor collection stops every
   domain, an idle one included.  Hand-over and retirement are both
   decided under the host's lock, so a descriptor is never handed to a
   host that is exiting. *)
type host = {
  lock : Mutex.t;
  changed : Condition.t;  (** a descriptor arrived or a session ended *)
  mutable sessions : int;
      (** guarded by lock: sessions running here or waiting in the
          mailbox *)
  mailbox : Unix.file_descr Queue.t;  (** guarded by lock *)
  mutable retired : bool;  (** guarded by lock *)
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
  start_host : host;  (** host 0 *)
  spares : (host * unit Domain.t) option array;
      (** hosts 1 .. [Domain.recommended_domain_count () - 1]; read and
          written only by the accept thread, and by [stop] once that
          thread has been joined *)
  spares_live : int Atomic.t;  (** spawned spares not yet retired *)
  mutable accept_thread : Thread.t option;
  connections_total : Metrics.counter;
  rejected_total : Metrics.counter;
  sessions_gauge : Metrics.gauge;
  hosts_gauge : Metrics.gauge;
}

let port t = t.server_port

let new_host () =
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    sessions = 0;
    mailbox = Queue.create ();
    retired = false;
  }

(* Move [counter] by [delta] and publish it on [gauge].  Two racing
   updates may set the gauge out of order; whoever sets it re-reads the
   counter afterwards, so the last value set is the counter's. *)
let publish gauge counter delta =
  ignore (Atomic.fetch_and_add counter delta);
  let rec set () =
    let value = Atomic.get counter in
    Metrics.set gauge (float_of_int value);
    if Atomic.get counter <> value then set ()
  in
  set ()

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

(* The last step of every session, run or shed: once [sessions] drops,
   a spare may retire, and [stop] may stop waiting for host 0. *)
let leave t host =
  publish t.sessions_gauge t.active (-1);
  Mutex.protect host.lock (fun () ->
      host.sessions <- host.sessions - 1;
      if host.sessions = 0 then Condition.broadcast host.changed)

let run_session t host fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (* [ic] and [oc] share one descriptor: it is closed exactly once,
         through [oc], after flushing what still can be.  Closing [ic]
         too would close the number a second time, and by then it may
         belong to a connection accepted meanwhile. *)
      close_out_noerr oc;
      leave t host)
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

(* A session thread on the calling domain.  Without a thread to run it,
   the connection is shed like a [clients_max] overflow. *)
let start_session t host fd =
  match Thread.create (run_session t host) fd with
  | (_ : Thread.t) -> ()
  | exception Sys_error _ ->
    reject_connection t fd;
    leave t host

(* A spare host's dispatcher: it runs on the spare's domain, starts a
   session thread for each descriptor in the mailbox, and ends the
   domain once the host has no session left.  The runtime joins the
   domain's remaining threads, each past its [leave], before
   [Domain.join] returns. *)
let rec dispatch t host =
  let next =
    Mutex.protect host.lock (fun () ->
        while Queue.is_empty host.mailbox && host.sessions > 0 do
          Condition.wait host.changed host.lock
        done;
        match Queue.take_opt host.mailbox with
        | Some fd -> Some fd
        | None ->
          host.retired <- true;
          None)
  in
  match next with
  | Some fd ->
    start_session t host fd;
    dispatch t host
  | None -> publish t.hosts_gauge t.spares_live (-1)

(* Give [fd] to [host]; false when the host is a spare that has already
   retired. *)
let hand_over t host fd =
  if host == t.start_host then begin
    Mutex.protect host.lock (fun () -> host.sessions <- host.sessions + 1);
    start_session t host fd;
    true
  end
  else
    Mutex.protect host.lock (fun () ->
        if host.retired then false
        else begin
          Queue.push fd host.mailbox;
          host.sessions <- host.sessions + 1;
          Condition.broadcast host.changed;
          true
        end)

(* Spawn a spare host in free slot [slot] with [fd] already in its
   mailbox; false when the runtime refuses another domain. *)
let spawn_spare t slot fd =
  let host = new_host () in
  Queue.push fd host.mailbox;
  host.sessions <- 1;
  publish t.hosts_gauge t.spares_live 1;
  match Domain.spawn (fun () -> dispatch t host) with
  | domain ->
    t.spares.(slot) <- Some (host, domain);
    true
  | exception Failure _ ->
    publish t.hosts_gauge t.spares_live (-1);
    false

(* Join the spares that have retired and free their slots.  Runs on the
   accept path (before each placement) and in [stop]. *)
let join_retired t =
  Array.iteri
    (fun slot entry ->
      match entry with
      | Some (host, domain)
        when Mutex.protect host.lock (fun () -> host.retired) ->
        Domain.join domain;
        t.spares.(slot) <- None
      | _ -> ())
    t.spares

(* Placement: the first host with no session, host 0 first; else a new
   spare while the table has a free slot; else the host with the fewest
   sessions, lowest index on ties.  A spare that retires between the
   count and the hand-over refuses the descriptor, and placement starts
   over without it.  Host 0 never refuses, so this ends. *)
let rec place t fd =
  join_retired t;
  let counted =
    List.map
      (fun host ->
        (host, Mutex.protect host.lock (fun () -> host.sessions)))
      (t.start_host
      :: List.filter_map (Option.map fst) (Array.to_list t.spares))
  in
  let fewest () =
    List.fold_left
      (fun (best, least) (host, n) ->
        if n < least then (host, n) else (best, least))
      (List.hd counted) (List.tl counted)
    |> fst
  in
  let placed =
    match List.find_opt (fun (_, n) -> n = 0) counted with
    | Some (host, _) -> hand_over t host fd
    | None -> (
      match Array.find_index Option.is_none t.spares with
      | Some slot when spawn_spare t slot fd -> true
      | _ -> hand_over t (fewest ()) fd)
  in
  if not placed then place t fd

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
      if Atomic.get t.active >= t.server_config.clients_max then
        reject_connection t fd
      else begin
        Metrics.incr t.connections_total;
        publish t.sessions_gauge t.active 1;
        place t fd
      end;
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
      start_host = new_host ();
      spares = Array.make (Domain.recommended_domain_count () - 1) None;
      spares_live = Atomic.make 0;
      accept_thread = None;
      connections_total = Metrics.counter "serve.net.connections";
      rejected_total = Metrics.counter "serve.net.rejected";
      sessions_gauge = Metrics.gauge "serve.net.sessions";
      hosts_gauge = Metrics.gauge "serve.net.hosts";
    }
  in
  (* The accept loop is a systhread of host 0, the calling domain, not a
     domain of its own.  Under OCaml 5 every minor collection stops every
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
    (* sessions end when their clients hang up; wait for the stragglers:
       host 0's by its count, each spare's by joining its domain, which
       ends with its last session *)
    let host = t.start_host in
    Mutex.protect host.lock (fun () ->
        while host.sessions > 0 do
          Condition.wait host.changed host.lock
        done);
    Array.iteri
      (fun slot entry ->
        Option.iter (fun (_, domain) -> Domain.join domain) entry;
        t.spares.(slot) <- None)
      t.spares;
    Pool.shutdown t.pool
  end
