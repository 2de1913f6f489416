module Diagnostic = Vqc_diag.Diagnostic

(* Call names are assembled at runtime so this file (and any test
   exercising it) does not flag itself. *)
let dot a b = a ^ "." ^ b

let allowed_wall_clock =
  [
    "lib/obs/span.ml";
    "lib/engine/pool.ml";
    "lib/sim/monte_carlo.ml";
    "lib/service/service.ml";
    "lib/drift/recompiler.ml";
    "bench/main.ml";
  ]

let allowed_stdout = []
let canonical_lock_order = [ "registry_lock"; "hlock" ]

let has_suffix ~suffix path =
  let lp = String.length path and ls = String.length suffix in
  lp >= ls && String.sub path (lp - ls) ls = suffix

let has_prefix ~prefix path =
  let lp = String.length path and ls = String.length prefix in
  lp >= ls && String.sub path 0 ls = prefix

let in_list suffixes file =
  List.exists (fun suffix -> has_suffix ~suffix file) suffixes

let contains ~needle haystack =
  let ln = String.length needle and lh = String.length haystack in
  let rec at i = i + ln <= lh && (String.sub haystack i ln = needle || at (i + 1)) in
  ln > 0 && at 0

(* ---- determinism & stdout hygiene (VQC201, VQC202) ------------------- *)

let wall_clock_calls = [ dot "Unix" "gettimeofday"; dot "Sys" "time" ]

let stdout_calls =
  [
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    dot "Printf" "printf";
    dot "Format" "printf";
    dot "Format" "print_string";
    dot "Format" "print_newline";
  ]

let banned_calls ~file tokens =
  let self_init = dot "Random" "self_init" in
  let clock_allowed = in_list allowed_wall_clock file in
  let stdout_checked =
    has_prefix ~prefix:"lib/" file && not (in_list allowed_stdout file)
  in
  List.filter_map
    (fun (t : Tokens.token) ->
      if t.Tokens.kind <> Tokens.Ident then None
      else begin
        let at = Diagnostic.File_line { file; line = t.Tokens.line } in
        if t.Tokens.text = self_init then
          Some
            (Diagnostic.errorf ~location:at Diagnostic.code_determinism
               "%s: environment-seeded RNG breaks reproducibility"
               t.Tokens.text)
        else if List.mem t.Tokens.text wall_clock_calls && not clock_allowed
        then
          Some
            (Diagnostic.errorf ~location:at Diagnostic.code_determinism
               "%s: wall-clock read outside the allow-listed timing sites \
                breaks determinism"
               t.Tokens.text)
        else if stdout_checked && List.mem t.Tokens.text stdout_calls then
          Some
            (Diagnostic.errorf ~location:at Diagnostic.code_stdout_hygiene
               "%s: library code must not print to stdout (return data, or \
                take a formatter)"
               t.Tokens.text)
        else None
      end)
    tokens

(* ---- top-level mutable state (VQC210) -------------------------------- *)

let guard_markers = [ "guarded by"; "domain-safe" ]

let comment_guards tokens =
  List.filter_map
    (fun (t : Tokens.token) ->
      if
        t.Tokens.kind = Tokens.Comment
        && List.exists (fun m -> contains ~needle:m t.Tokens.text) guard_markers
      then Some t.Tokens.line
      else None)
    tokens

(* A shared mutable global is a top-level [let] (column 0) whose
   binding line mentions [ref] or [Hashtbl.create].  Single-line
   heuristic by design: every such binding in this repo fits on one
   line, and the rule is a tripwire, not a proof.  Suppressed when the
   value is [Atomic], or when the line (or the line above) carries a
   comment registering the guard — "guarded by <lock>" or
   "domain-safe". *)
let unguarded_state ~file tokens =
  if not (has_prefix ~prefix:"lib/" file) then []
  else begin
    let guards = comment_guards tokens in
    let line_tokens line =
      List.filter (fun (t : Tokens.token) -> t.Tokens.line = line) tokens
    in
    List.filter_map
      (fun (t : Tokens.token) ->
        if
          t.Tokens.kind = Tokens.Ident
          && t.Tokens.text = "let"
          && t.Tokens.column = 0
        then begin
          let on_line = line_tokens t.Tokens.line in
          let mentions name =
            List.exists
              (fun (u : Tokens.token) ->
                u.Tokens.kind = Tokens.Ident && u.Tokens.text = name)
              on_line
          in
          let atomic =
            List.exists
              (fun (u : Tokens.token) ->
                u.Tokens.kind = Tokens.Ident
                && has_prefix ~prefix:"Atomic." u.Tokens.text)
              on_line
          in
          let registered =
            List.mem t.Tokens.line guards || List.mem (t.Tokens.line - 1) guards
          in
          if
            (mentions "ref" || mentions (dot "Hashtbl" "create"))
            && (not atomic) && not registered
          then
            Some
              (Diagnostic.errorf
                 ~location:
                   (Diagnostic.File_line { file; line = t.Tokens.line })
                 Diagnostic.code_unguarded_state
                 "top-level mutable state must be Atomic or carry a \
                  '(* guarded by <lock> *)' registration")
          else None
        end
        else None)
      tokens
  end

(* ---- lock discipline (VQC211, VQC212) -------------------------------- *)

let last_component path =
  match String.rindex_opt path '.' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* The identifier the lock call is applied to, if syntactically
   evident ("?" for computed lock expressions). *)
let lockee rest =
  match rest with
  | (u : Tokens.token) :: _ when u.Tokens.kind = Tokens.Ident ->
    last_component u.Tokens.text
  | _ -> "?"

let lock_rules ~file tokens =
  let lock_call = dot "Mutex" "lock" in
  let unlock_call = dot "Mutex" "unlock" in
  let protect_call = dot "Mutex" "protect" in
  let locks = ref 0 in
  let releases = ref 0 in
  let first_lock_line = ref 0 in
  let held = ref [] in
  let order_findings = ref [] in
  let rank name =
    let rec index i = function
      | [] -> None
      | x :: rest -> if x = name then Some i else index (i + 1) rest
    in
    index 0 canonical_lock_order
  in
  let rec walk = function
    | [] -> ()
    | (t : Tokens.token) :: rest ->
      (if t.Tokens.kind = Tokens.Ident then begin
         if t.Tokens.text = lock_call then begin
           incr locks;
           if !first_lock_line = 0 then first_lock_line := t.Tokens.line;
           let name = lockee rest in
           (match !held with
           | (holding, _) :: _ when holding <> "?" && name <> "?" ->
             let ordered =
               match (rank holding, rank name) with
               | Some a, Some b -> a < b
               | _ -> false
             in
             if not ordered then
               order_findings :=
                 Diagnostic.errorf
                   ~location:
                     (Diagnostic.File_line { file; line = t.Tokens.line })
                   Diagnostic.code_lock_order
                   "lock '%s' acquired while holding '%s': nested \
                    acquisition must follow the canonical order (%s)"
                   name holding
                   (String.concat " < " canonical_lock_order)
                 :: !order_findings
           | _ -> ());
           held := (name, t.Tokens.line) :: !held
         end
         else if t.Tokens.text = unlock_call then begin
           incr releases;
           let name = lockee rest in
           let rec drop = function
             | [] -> []
             | (holding, line) :: remaining ->
               if holding = name || holding = "?" || name = "?" then remaining
               else (holding, line) :: drop remaining
           in
           held := drop !held
         end
         else if t.Tokens.text = protect_call then incr releases
       end;
       walk rest)
  in
  walk tokens;
  let shape =
    if !locks > !releases then
      [
        Diagnostic.errorf
          ~location:(Diagnostic.File_line { file; line = !first_lock_line })
          Diagnostic.code_lock_shape
          "%d Mutex.lock call(s) against %d unlock/protect site(s): a \
           raising path between them leaks the lock"
          !locks !releases;
      ]
    else []
  in
  shape @ !order_findings

(* ---- entry ----------------------------------------------------------- *)

let scan_source ~file text =
  let tokens = Tokens.scan text in
  banned_calls ~file tokens
  @ unguarded_state ~file tokens
  @ lock_rules ~file tokens
  |> List.sort Diagnostic.compare

(* ---- tree walk ------------------------------------------------------- *)

let roots = [ "lib"; "bin"; "examples"; "test"; "bench" ]

let rec ml_files directory =
  match Sys.readdir directory with
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || (entry <> "" && entry.[0] = '.') then acc
        else begin
          let path = Filename.concat directory entry in
          if Sys.is_directory path then acc @ ml_files path
          else if Filename.check_suffix entry ".ml" then acc @ [ path ]
          else acc
        end)
      [] entries
  | exception Sys_error _ -> []

let scan_tree ~root =
  List.concat_map
    (fun top ->
      let directory = Filename.concat root top in
      if Sys.file_exists directory && Sys.is_directory directory then
        List.concat_map
          (fun path ->
            match In_channel.with_open_text path In_channel.input_all with
            | text ->
              (* report paths relative to the root, '/'-separated *)
              let file =
                if root = "." || root = "" then path
                else if String.length path > String.length root
                        && String.sub path 0 (String.length root) = root then
                  String.sub path
                    (String.length root + 1)
                    (String.length path - String.length root - 1)
                else path
              in
              scan_source ~file text
            | exception Sys_error message ->
              [
                Diagnostic.errorf
                  ~location:(Diagnostic.File_line { file = path; line = 1 })
                  Diagnostic.code_determinism "unreadable source file: %s"
                  message;
              ])
          (ml_files directory)
      else [])
    roots
  |> List.sort Diagnostic.compare
