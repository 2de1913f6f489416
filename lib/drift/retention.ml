module Device = Vqc_device.Device
module Layout = Vqc_mapper.Layout
module Verify = Vqc_check.Verify
module Diagnostic = Vqc_diag.Diagnostic

type policy = { threshold : float }

let default = { threshold = 0.05 }
let wholesale policy = policy.threshold <= 0.0

type decision =
  | Retain
  | Recompile

let decide policy score =
  if wholesale policy then Recompile
  else if Staleness.staleness score <= policy.threshold then Retain
  else Recompile

let reverify ~device ~source ~physical ~initial ~final ~swaps =
  let physicals = Device.num_qubits device in
  match
    ( Layout.of_assignment ~physicals initial,
      Layout.of_assignment ~physicals final )
  with
  | initial, final ->
    Verify.check
      { Verify.device; source; physical; initial; final; swaps_inserted = swaps }
  | exception Invalid_argument message ->
    [
      Diagnostic.errorf Diagnostic.code_malformed_plan
        "cached plan carries a malformed layout: %s" message;
    ]
