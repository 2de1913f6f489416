(* FNV-1a, 64-bit: digest = fold (xor byte, * prime) over the bytes.
   Computed in Int64 so the result is identical on 32- and 64-bit
   targets (OCaml's native int is 63-bit); the accumulator of the byte
   loop stays unboxed. *)

let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let feed_sub digest s off len =
  let digest = ref digest in
  for i = off to off + len - 1 do
    let byte = Int64.of_int (Char.code (String.unsafe_get s i)) in
    digest := Int64.mul (Int64.logxor !digest byte) prime
  done;
  !digest

let hex digest =
  String.init 16 (fun i ->
      let nibble = Int64.shift_right_logical digest (60 - (4 * i)) in
      "0123456789abcdef".[Int64.to_int (Int64.logand nibble 15L)])

let of_string s = hex (feed_sub basis s 0 (String.length s))

(* The chunk is only read before [fold_rendering] reuses it. *)
let circuit c =
  hex
    (Vqc_circuit.Qasm.fold_rendering
       (fun digest chunk off len ->
         feed_sub digest (Bytes.unsafe_to_string chunk) off len)
       basis c)

let calibration c = of_string (Vqc_device.Calibration.to_string c)
let device d = of_string (Vqc_device.Device.to_string d)
