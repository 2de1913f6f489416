(* IBM Q20 Tokyo: 4 rows of 5 qubits (0-4 / 5-9 / 10-14 / 15-19) with
   horizontal, vertical and the published diagonal couplers. *)
let ibm_q20_tokyo =
  let horizontals =
    List.concat_map
      (fun row ->
        List.init 4 (fun i ->
            let q = (5 * row) + i in
            (q, q + 1)))
      [ 0; 1; 2; 3 ]
  in
  let verticals = List.init 15 (fun q -> (q, q + 5)) in
  let diagonals =
    [
      (1, 7); (2, 6); (3, 9); (4, 8);
      (5, 11); (6, 10); (7, 13); (8, 12);
      (11, 17); (12, 16); (13, 19); (14, 18);
    ]
  in
  List.sort compare (horizontals @ verticals @ diagonals)

let ibm_q5_tenerife = [ (0, 1); (0, 2); (1, 2); (2, 3); (2, 4); (3, 4) ]

let linear n =
  if n < 1 then invalid_arg "Topologies.linear: need at least 1 qubit";
  List.init (max 0 (n - 1)) (fun i -> (i, i + 1))

let ring n =
  if n < 3 then invalid_arg "Topologies.ring: need at least 3 qubits";
  (0, n - 1) :: List.init (n - 1) (fun i -> (i, i + 1)) |> List.sort compare

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Topologies.grid: empty grid";
  let horizontal =
    List.concat_map
      (fun r -> List.init (cols - 1) (fun c -> ((r * cols) + c, (r * cols) + c + 1)))
      (List.init rows Fun.id)
  in
  let vertical =
    List.concat_map
      (fun r -> List.init cols (fun c -> ((r * cols) + c, ((r + 1) * cols) + c)))
      (List.init (rows - 1) Fun.id)
  in
  List.sort compare (horizontal @ vertical)

let fully_connected n =
  List.concat_map
    (fun u -> List.init (n - 1 - u) (fun k -> (u, u + 1 + k)))
    (List.init n Fun.id)

let pentagon = ring 5

(* Two rails of 7 (0-6 upper, 7-13 lower, lower reversed on the device)
   with a rung at every column. *)
let ibm_q16_melbourne =
  let upper = List.init 6 (fun i -> (i, i + 1)) in
  let lower = List.init 6 (fun i -> (i + 7, i + 8)) in
  let rungs = List.init 7 (fun i -> (i, 13 - i)) in
  List.sort compare (upper @ lower @ List.map (fun (u, v) -> (min u v, max u v)) rungs)

(* The 27-qubit Falcon heavy-hex map (degree <= 3). *)
let heavy_hex_27 =
  [
    (0, 1); (1, 2); (1, 4); (2, 3); (3, 5); (4, 7); (5, 8); (6, 7);
    (7, 10); (8, 9); (8, 11); (10, 12); (11, 14); (12, 13); (12, 15);
    (13, 14); (14, 16); (15, 18); (16, 19); (17, 18); (18, 21); (19, 20);
    (19, 22); (21, 23); (22, 25); (23, 24); (24, 25); (25, 26);
  ]

let bristlecone_like ~rows ~cols =
  if rows < 2 || cols < 2 then
    invalid_arg "Topologies.bristlecone_like: need at least a 2x2 grid";
  let base = grid ~rows ~cols in
  let diagonals =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun c ->
            let q = (r * cols) + c in
            [ (q, q + cols + 1); (q + 1, q + cols) ])
          (List.init (cols - 1) Fun.id))
      (List.init (rows - 1) Fun.id)
  in
  List.sort compare (base @ List.map (fun (u, v) -> (min u v, max u v)) diagonals)
