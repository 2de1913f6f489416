(** Multi-client TCP front end for the compilation service.

    One listener on loopback, one systhread per accepted client, each
    running the stdin-identical {!Session} loop over its own
    {!Vqc_service.Service} — private plan cache, private admission
    queue, private epoch cursor ({!Vqc_service.Epoch.fork}) — while
    sharing two correctness-neutral resources across sessions: the
    worker {!Vqc_engine.Pool} (safe for concurrent [map] calls) and a
    content-addressed compile store (see
    {!Vqc_service.Service.shared_store}) that turns one client's
    compile into every client's warm hit.

    Session threads run on at most [Domain.recommended_domain_count ()]
    host domains.  Host 0 is the domain that called {!start}; a new
    session goes to the first host with no session, host 0 first, else
    to a newly spawned spare host while there are fewer hosts than the
    recommended count, else to the host with the fewest sessions.  A
    spare host exits when its last session ends: under OCaml 5 every
    minor collection stops every domain, idle ones included.  A session
    never moves between hosts.

    Isolation model: anything that could make one client's response
    bytes depend on another client's traffic is per-session; anything
    shared is invisible outside latency, metrics and the ["nd"]
    response section.  The determinism test wall
    ([test/test_serve_net.ml]) holds concurrent response streams to
    their single-client golden runs across worker counts and client
    counts.

    Beyond [clients_max] concurrent clients, a new connection receives
    one [rejected] line (reason [server_full], code [VQC131]) and is
    closed — connection-level load shedding, mirroring the [VQC130]
    per-request admission rejection inside a session.

    Metrics: [serve.net.connections], [serve.net.rejected],
    [serve.net.sessions] (live-session gauge), [serve.net.hosts]
    (spawned spare hosts not yet retired); per-session service
    traffic lands under [service.*], the shared store under
    [serve.store.*]. *)

type config = {
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  clients_max : int;
      (** concurrent-session cap (>= 1); no other limit applies *)
  session : Session.config;
  service : Vqc_service.Service.config;
      (** per-session service configuration ([jobs] sizes the shared
          pool) *)
  store_capacity : int;  (** shared compile store entries *)
}

val default_config : config
(** port 0 (ephemeral), 64 clients, default session/service configs,
    1024-entry store. *)

type t

val start : ?config:config -> Vqc_service.Epoch.t -> t
(** Bind, listen and start accepting on a background systhread of the
    calling domain (a domain would be stopped and woken by every minor
    collection of every session while it waits in [accept]).  The
    calling domain is host 0: its sessions share it with the accept
    thread and with whatever else the caller runs there, so a new
    connection may wait for a running session to block or for the
    runtime's 50 ms thread tick.  The given epoch rotation is the boot
    state every session forks from.
    Ignores [SIGPIPE] process-wide (a vanished client must not kill
    the server).
    @raise Invalid_argument on a bad [clients_max] or [port]
    @raise Unix.Unix_error when the port cannot be bound. *)

val port : t -> int
(** The bound port — the ephemeral port when [config.port] was 0. *)

val wait : t -> unit
(** Block until the accept loop exits (i.e. until {!stop} is called
    from another thread of control, or never). *)

val stop : t -> unit
(** Stop accepting, wait for the live sessions to finish (they end
    when their clients hang up), join every spare host, and shut the
    worker pool down.  Idempotent. *)
