module Json = Vqc_obs.Json

exception Invalid of string

let utf8_add buffer code =
  if code < 0x80 then Buffer.add_char buffer (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buffer (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_exn text =
  let pos = ref 0 in
  let len = String.length text in
  let fail message = raise (Invalid (Printf.sprintf "%s at %d" message !pos)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let skip_ws () =
    while
      !pos < len
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let value = ref 0 in
    for _ = 1 to 4 do
      let digit =
        match peek () with
        | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
        | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
        | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      value := (!value lsl 4) lor digit;
      advance ()
    done;
    !value
  in
  (* Advance over a run of bytes that stand for themselves (no quote,
     backslash or control character); returns where the run started. *)
  let plain_run () =
    let start = !pos in
    while
      !pos < len
      && match text.[!pos] with '"' | '\\' -> false | c -> Char.code c >= 0x20
    do
      advance ()
    done;
    start
  in
  let escape buffer =
    match peek () with
    | Some '"' ->
      Buffer.add_char buffer '"';
      advance ()
    | Some '\\' ->
      Buffer.add_char buffer '\\';
      advance ()
    | Some '/' ->
      Buffer.add_char buffer '/';
      advance ()
    | Some 'n' ->
      Buffer.add_char buffer '\n';
      advance ()
    | Some 'r' ->
      Buffer.add_char buffer '\r';
      advance ()
    | Some 't' ->
      Buffer.add_char buffer '\t';
      advance ()
    | Some 'b' ->
      Buffer.add_char buffer '\b';
      advance ()
    | Some 'f' ->
      Buffer.add_char buffer '\012';
      advance ()
    | Some 'u' ->
      advance ();
      let code = hex4 () in
      if code >= 0xD800 && code <= 0xDBFF then begin
        (* high surrogate: the low half must follow immediately *)
        if not (!pos + 1 < len && text.[!pos] = '\\' && text.[!pos + 1] = 'u')
        then fail "unpaired surrogate";
        pos := !pos + 2;
        let low = hex4 () in
        if low < 0xDC00 || low > 0xDFFF then fail "unpaired surrogate";
        utf8_add buffer (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
      end
      else if code >= 0xDC00 && code <= 0xDFFF then fail "unpaired surrogate"
      else utf8_add buffer code
    | _ -> fail "bad escape"
  in
  (* Runs are copied whole; a string without escapes is one [sub]. *)
  let parse_string () =
    expect '"';
    let start = plain_run () in
    if !pos < len && text.[!pos] = '"' then begin
      advance ();
      String.sub text start (!pos - 1 - start)
    end
    else begin
      let buffer = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buffer text start (!pos - start);
      let rec loop () =
        if !pos >= len then fail "unterminated string";
        match text.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          escape buffer;
          let start = plain_run () in
          Buffer.add_substring buffer text start (!pos - start);
          loop ()
        | _ -> fail "raw control char in string"
      in
      loop ();
      Buffer.contents buffer
    end
  in
  (* The lexeme is the run of number characters.  RFC 8259 asks for an
     optional minus, 0 or digits without a leading zero, an optional
     fraction of at least one digit, and an optional exponent (e or E,
     optional sign, at least one digit); the value must be finite. *)
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      && match text.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    let n = String.length s in
    let bad () = fail ("bad number " ^ s) in
    let rec digits i =
      if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i
    in
    let some_digits i =
      let j = digits i in
      if j = i then bad () else j
    in
    let sign = if n > 0 && s.[0] = '-' then 1 else 0 in
    let int_end =
      if sign < n && s.[sign] = '0' then sign + 1 else some_digits sign
    in
    let frac_end =
      if int_end < n && s.[int_end] = '.' then some_digits (int_end + 1)
      else int_end
    in
    let exp_end =
      if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then begin
        let i = frac_end + 1 in
        some_digits (if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i)
      end
      else frac_end
    in
    if exp_end <> n then bad ();
    if int_end = n then
      match int_of_string_opt s with Some i -> Json.Int i | None -> bad ()
    else
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Json.Float f
      | Some _ | None -> bad ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Json.Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Json.Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Json.List []
      end
      else begin
        let rec items acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Json.List (items [])
      end
    | Some '"' -> Json.String (parse_string ())
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | Some _ -> parse_number ()
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  value

let parse text =
  match parse_exn text with
  | value -> Ok value
  | exception Invalid message -> Error message

let member key json =
  match json with
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_value = function Json.String s -> Some s | _ -> None

let int_value = function
  | Json.Int i -> Some i
  | Json.Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Some (int_of_float f)
  | _ -> None

let float_value = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None
