type t = {
  phys_of_prog : int array;  (* program qubit -> physical qubit *)
  prog_of_phys : int array;  (* physical qubit -> program qubit or -1 *)
}

let invariant_violation fmt = Printf.ksprintf invalid_arg fmt

let of_assignment ~physicals phys_of_prog =
  let programs = Array.length phys_of_prog in
  if programs > physicals then
    invariant_violation "Layout: %d program qubits on %d physical" programs
      physicals;
  let prog_of_phys = Array.make physicals (-1) in
  Array.iteri
    (fun prog phys ->
      if phys < 0 || phys >= physicals then
        invariant_violation "Layout: physical qubit %d out of range" phys;
      if prog_of_phys.(phys) <> -1 then
        invariant_violation "Layout: physical qubit %d assigned twice" phys;
      prog_of_phys.(phys) <- prog)
    phys_of_prog;
  { phys_of_prog = Array.copy phys_of_prog; prog_of_phys }

let identity ~programs ~physicals =
  if programs < 0 then invariant_violation "Layout: negative program count";
  of_assignment ~physicals (Array.init programs Fun.id)

let programs l = Array.length l.phys_of_prog
let physicals l = Array.length l.prog_of_phys

let physical_of_program l prog =
  if prog < 0 || prog >= programs l then
    invariant_violation "Layout: program qubit %d out of range" prog;
  l.phys_of_prog.(prog)

let program_of_physical l phys =
  if phys < 0 || phys >= physicals l then
    invariant_violation "Layout: physical qubit %d out of range" phys;
  match l.prog_of_phys.(phys) with -1 -> None | prog -> Some prog

let occupied l phys = program_of_physical l phys <> None

let swap_physical l u v =
  if u = v then invariant_violation "Layout.swap_physical: identical qubits";
  let check phys =
    if phys < 0 || phys >= physicals l then
      invariant_violation "Layout: physical qubit %d out of range" phys
  in
  check u;
  check v;
  (* occupants as raw program indexes, -1 when empty: no option boxes *)
  let pu = l.prog_of_phys.(u) and pv = l.prog_of_phys.(v) in
  let phys_of_prog = Array.copy l.phys_of_prog in
  let prog_of_phys = Array.copy l.prog_of_phys in
  prog_of_phys.(u) <- pv;
  prog_of_phys.(v) <- pu;
  if pu >= 0 then phys_of_prog.(pu) <- v;
  if pv >= 0 then phys_of_prog.(pv) <- u;
  { phys_of_prog; prog_of_phys }

let assignment l = Array.copy l.phys_of_prog

let used_physicals l = List.sort compare (Array.to_list l.phys_of_prog)

(* One byte per program qubit: the assignment is injective into
   [0, physicals), so for devices under 256 qubits the packed bytes are a
   canonical key (and far cheaper to build and hash than decimal text —
   this runs once per generated A* successor).  Larger devices fall back
   to the textual encoding. *)
let key l =
  let programs = Array.length l.phys_of_prog in
  if Array.length l.prog_of_phys < 256 then begin
    let bytes = Bytes.create programs in
    for prog = 0 to programs - 1 do
      Bytes.unsafe_set bytes prog
        (Char.unsafe_chr (Array.unsafe_get l.phys_of_prog prog))
    done;
    Bytes.unsafe_to_string bytes
  end
  else begin
    let buffer = Buffer.create (2 * programs) in
    Array.iter
      (fun phys ->
        Buffer.add_string buffer (string_of_int phys);
        Buffer.add_char buffer ',')
      l.phys_of_prog;
    Buffer.contents buffer
  end

let equal a b = a.phys_of_prog = b.phys_of_prog

let pp ppf l =
  Format.fprintf ppf "@[<h>{";
  Array.iteri
    (fun prog phys ->
      if prog > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "q%d->%d" prog phys)
    l.phys_of_prog;
  Format.fprintf ppf "}@]"
