(* Host speed.  The machine this benchmark was sized on is a 2-vCPU VM
   on a shared host, and how fast its vCPUs run moves on its own: a
   fixed spin loop, with nothing else running in the VM and almost no
   steal reported, ran 1.0 to 1.7 times as fast from one second to the
   next, and 30-second runs of the hit workload a few minutes apart
   served 6200 to 8000 requests a second.  So a run times a fixed
   reference computation of the benchmark's own on both vCPUs before
   every set-up and between every two slices of its timed phase, and
   can report a time in reference seconds: wall seconds x [nominal] / a
   reading taken next to it (main.ml says which times, and README.md
   why only those).  On a host where the reference takes [nominal],
   reference seconds are wall seconds.  The reference is this file's code alone, and a running
   server is stopped while it runs, so no change to the program can
   move it. *)

(* The reference: allocation, string scanning, hashing and float
   arithmetic, roughly the mix of a cache hit in the server. *)
let text = String.init 4096 (fun i -> Char.chr (32 + (i * 7919 mod 90)))

let round r =
  let table = Hashtbl.create 64 in
  List.iter (fun part -> Hashtbl.replace table (String.length part + r) part)
    (String.split_on_char ';' text);
  let sum = List.fold_left ( +. ) 0.0 (List.init 200 (fun i -> float_of_int (i + r))) in
  Hashtbl.length table + Char.code (Digest.string text).[r mod 16] + int_of_float sum

let rounds = 400

(* About what [rounds] took per vCPU on the machine this was sized on. *)
let nominal = 0.008

(* Keeps the reference's result alive, so that it is computed. *)
let sink = Atomic.make 0

let time_rounds () =
  let start = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to rounds do
    acc := !acc + round r
  done;
  ignore (Atomic.fetch_and_add sink !acc);
  Unix.gettimeofday () -. start

(* One reading: [rounds] rounds on each of two domains at once, three
   times; the median of the three means, so that one burst of steal does
   not decide it.  A running server, [pause], is stopped (SIGSTOP, then
   waited for) for the reading and continued after it. *)
let reading ?pause () =
  Option.iter
    (fun pid ->
      Unix.kill pid Sys.sigstop;
      ignore (Unix.waitpid [ Unix.WUNTRACED ] pid))
    pause;
  let once () =
    let other = Domain.spawn time_rounds in
    let mine = time_rounds () in
    (mine +. Domain.join other) /. 2.0
  in
  let times = Array.init 3 (fun _ -> once ()) in
  Option.iter (fun pid -> Unix.kill pid Sys.sigcont) pause;
  Stats.median times

(* [wall] seconds in reference seconds, by a reading taken next to it. *)
let reference_seconds ~reading wall = wall *. nominal /. reading
