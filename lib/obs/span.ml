(* Per-thread span stacks.  Spans opened by pool workers on different
   domains nest independently, which is exactly the call-tree shape;
   so must those of two systhreads sharing a domain (TCP sessions on
   one host), which interleave whenever one blocks inside a span.
   Each domain keeps its own table from thread id to stack, so pool
   workers never contend for one; its lock guards the table against a
   thread switch on the same domain, not against other domains.  A
   thread's entry goes when its stack empties, so the table holds only
   threads with open spans. *)
type stacks = { lock : Mutex.t; by_thread : (int, string list) Hashtbl.t }

(* domain-safe: one table per domain via DLS, each behind its own lock *)
let stacks_key : stacks Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { lock = Mutex.create (); by_thread = Hashtbl.create 8 })

let get stacks thread =
  Mutex.protect stacks.lock (fun () ->
      Option.value (Hashtbl.find_opt stacks.by_thread thread) ~default:[])

let set stacks thread stack =
  Mutex.protect stacks.lock (fun () ->
      match stack with
      | [] -> Hashtbl.remove stacks.by_thread thread
      | _ -> Hashtbl.replace stacks.by_thread thread stack)

let stack () =
  get (Domain.DLS.get stacks_key) (Thread.id (Thread.self ()))

let with_span ?(fields = []) ~source name f =
  (* a systhread never changes domain, so the table read here is the
     one to restore on the way out *)
  let stacks = Domain.DLS.get stacks_key in
  let thread = Thread.id (Thread.self ()) in
  let parent = get stacks thread in
  let current = name :: parent in
  set stacks thread current;
  let path = String.concat "/" (List.rev current) in
  let histogram = Metrics.histogram ("span." ^ name) in
  let started = Unix.gettimeofday () in
  let finish ok =
    let seconds = Unix.gettimeofday () -. started in
    set stacks thread parent;
    Metrics.observe histogram seconds;
    if Trace.enabled () then
      Trace.emit ~source ~event:"span"
        ~nd:[ ("seconds", Json.Float seconds) ]
        (("name", Json.String name)
        :: ("path", Json.String path)
        :: ("ok", Json.Bool ok)
        :: fields)
  in
  match f () with
  | result ->
    finish true;
    result
  | exception exn ->
    let backtrace = Printexc.get_raw_backtrace () in
    finish false;
    Printexc.raise_with_backtrace exn backtrace
