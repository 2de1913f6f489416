(* Pins the mapper's outputs byte for byte: one digest per compiled plan
   of servebench's key set W (17 circuits x 7 service policies) on 8
   days of the seed-2 Q20 history, then every router on seeded random
   programs and layouts — A* under both cost models, MAH none/0/2,
   bridges on and off, an expansion cap small enough to force the
   serialized fallback, greedy and SABRE — and the same routers on a
   256-qubit grid, where layouts no longer fit one byte per qubit.  The
   dune rule diffs this against test/golden/routing.expected. *)

module Circuit = Vqc_circuit.Circuit
module Gate = Vqc_circuit.Gate
module Qasm = Vqc_circuit.Qasm
module Device = Vqc_device.Device
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Calibration_model = Vqc_device.Calibration_model
module Layout = Vqc_mapper.Layout
module Cost = Vqc_mapper.Cost
module Router = Vqc_mapper.Router
module Sabre = Vqc_mapper.Sabre
module Compiler = Vqc_mapper.Compiler
module Catalog = Vqc_workloads.Catalog
module Policies = Vqc_service.Policies
module Rng = Vqc_rng.Rng

let circuits =
  [
    "alu"; "bv-16"; "bv-20"; "qft-12"; "qft-14"; "bv-3"; "bv-4"; "TriSwap";
    "GHZ-3"; "alu-10"; "bv-10"; "qft-10"; "dj-8"; "grover-2"; "grover-3";
    "w-6"; "qaoa-12";
  ]

let assignment_text layout =
  String.concat ","
    (List.map string_of_int (Array.to_list (Layout.assignment layout)))

let stats_text (s : Router.stats) =
  Printf.sprintf "swaps=%d expansions=%d fallbacks=%d" s.Router.swaps_inserted
    s.Router.astar_expansions s.Router.greedy_fallbacks

let plan_digest (c : Compiler.compiled) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            Qasm.to_string c.Compiler.physical;
            assignment_text c.Compiler.initial;
            assignment_text c.Compiler.final;
            stats_text c.Compiler.stats;
          ]))

(* the seed-2 history vqc-serve and servebench synthesize *)
let q20_day =
  let history =
    History.generate ~seed:2 ~coupling:Topologies.ibm_q20_tokyo 20
  in
  fun day ->
    Device.make ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo
      (History.day history day)

let plan_digests () =
  for day = 0 to 7 do
    let device = q20_day day in
    List.iter
      (fun name ->
        let program = (Catalog.find name).Catalog.circuit in
        List.iter
          (fun { Policies.label; policy; _ } ->
            let compiled = Compiler.compile device policy program in
            Printf.printf "plan day=%d %s %s %s\n" day name label
              (plan_digest compiled))
          Policies.all)
      circuits
  done

(* A random program over [n] qubits: CNOTs, program SWAPs (which never
   execute bridged), Hadamards and measurements. *)
let random_program rng n gates =
  let other q =
    let o = Rng.int rng (n - 1) in
    if o >= q then o + 1 else o
  in
  let gate () =
    let q = Rng.int rng n in
    match Rng.int rng 8 with
    | 0 | 1 | 2 | 3 -> Gate.Cnot { control = q; target = other q }
    | 4 -> Gate.Swap (q, other q)
    | 5 | 6 -> Gate.One_qubit (Gate.H, q)
    | _ -> Gate.Measure { qubit = q; cbit = q }
  in
  Circuit.of_gates n (List.init gates (fun _ -> gate ()))

(* [n] distinct physical qubits drawn from the first [pool]. *)
let random_layout rng ~physicals ~pool n =
  let nodes = Array.init pool Fun.id in
  Rng.shuffle rng nodes;
  Layout.of_assignment ~physicals (Array.sub nodes 0 n)

let print_route label (r : Router.result) =
  let swaps =
    List.filter_map
      (function
        | Gate.Swap (u, v) -> Some (Printf.sprintf "%d-%d" u v) | _ -> None)
      (Circuit.gates r.Router.circuit)
  in
  Printf.printf "%s %s final=%s digest=%s swaps=%s\n" label
    (stats_text r.Router.stats)
    (assignment_text r.Router.final)
    (Digest.to_hex (Digest.string (Qasm.to_string r.Router.circuit)))
    (String.concat " " swaps)

let model_name = function Cost.Hops -> "hops" | Cost.Reliability -> "rel"

let route_cases ~tag ~device ~pool ~programs ~qubits ~gates ~mahs ~seed =
  let rng = Rng.make seed in
  let physicals = Device.num_qubits device in
  for case = 0 to programs - 1 do
    let n = qubits rng in
    let program = random_program rng n (gates rng) in
    let layout = random_layout rng ~physicals ~pool n in
    List.iter
      (fun model ->
        let cost = Cost.cached device model in
        let label what =
          Printf.sprintf "%s case=%d %s %s" tag case (model_name model) what
        in
        List.iter
          (fun mah ->
            List.iter
              (fun bridges ->
                let r =
                  Router.route ?max_additional_hops:mah ~bridges cost layout
                    program
                in
                print_route
                  (label
                     (Printf.sprintf "astar mah=%s bridges=%b"
                        (match mah with
                        | None -> "none"
                        | Some m -> string_of_int m)
                        bridges))
                  r)
              [ false; true ])
          mahs;
        print_route (label "astar cap=3")
          (Router.route ~max_expansions:3 cost layout program);
        print_route (label "astar cap=3 bridges")
          (Router.route ~max_expansions:3 ~bridges:true cost layout program);
        print_route (label "greedy") (Router.route_greedy cost layout program);
        print_route (label "sabre") (Sabre.route cost layout program))
      [ Cost.Hops; Cost.Reliability ]
  done

let () =
  plan_digests ();
  route_cases ~tag:"q20" ~device:(q20_day 0) ~pool:20 ~programs:40
    ~qubits:(fun rng -> 2 + Rng.int rng 9)
    ~gates:(fun rng -> 4 + Rng.int rng 30)
    ~mahs:[ None; Some 0; Some 2 ]
    ~seed:11;
  let coupling = Topologies.grid ~rows:16 ~cols:16 in
  let grid =
    Device.make ~name:"grid-256" ~coupling
      (Calibration_model.generate (Rng.make 5) ~coupling 256)
  in
  route_cases ~tag:"grid256" ~device:grid ~pool:48 ~programs:4
    ~qubits:(fun rng -> 3 + Rng.int rng 4)
    ~gates:(fun rng -> 6 + Rng.int rng 10)
    ~mahs:[ None; Some 2 ]
    ~seed:13
