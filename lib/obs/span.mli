(** Lightweight nesting timers.

    [with_span ~source name f] pushes [name] onto the calling thread's
    span stack, runs [f], and on the way out (normal return {e or}
    exception) pops the stack, records the wall-clock duration into the
    [span.<name>] histogram, and emits a {!Trace} event whose
    deterministic fields are the span name, its full [path]
    (outermost/innermost, ["/"]-joined), an [ok] flag, plus any caller
    [fields]; the duration lives under ["nd"].

    Span stacks are per systhread, so spans opened inside pool workers
    nest within that worker's call tree only, and two sessions sharing
    a domain keep their own paths even when one blocks inside a span
    and the other runs. *)

val with_span :
  ?fields:Trace.field list -> source:string -> string -> (unit -> 'a) -> 'a
(** The exception (with its backtrace) is re-raised after the span is
    closed — the span stack is always restored. *)

val stack : unit -> string list
(** Names of the open spans on the calling thread, innermost first. *)
