(** Strict JSON parsing for the wire layer.

    The observability layer deliberately only {e emits} JSON
    ({!Vqc_obs.Json}); the serving layer is the first subsystem that has
    to read it — every [vqc-serve] request arrives as one JSON object on
    one line.  This parser accepts exactly RFC 8259 JSON (no comments,
    no trailing commas, no unquoted keys) and produces the same
    {!Vqc_obs.Json.t} tree the emitter consumes, so a parsed value can
    be echoed back verbatim (request ids round-trip through responses).

    Numbers follow RFC 8259's grammar (no [+] sign, no leading zeros,
    digits on both sides of a [.]) and must be finite, so [1e400] is an
    error, not infinity.  Numbers without [.], [e] or [E] that fit in an
    OCaml [int] parse as [Int]; everything else parses as [Float].  [\u]
    escapes decode to UTF-8 (surrogate pairs included). *)

val parse : string -> (Vqc_obs.Json.t, string) result
(** Parse one complete JSON value.  [Error message] includes the byte
    offset of the failure. *)

(** {1 Accessors} *)

val member : string -> Vqc_obs.Json.t -> Vqc_obs.Json.t option
(** Field lookup on an [Obj]; [None] on a missing key or a non-object. *)

val string_value : Vqc_obs.Json.t -> string option
val int_value : Vqc_obs.Json.t -> int option
(** [int_value] accepts [Int] and integral [Float]s. *)

val float_value : Vqc_obs.Json.t -> float option
(** [float_value] accepts any JSON number. *)
