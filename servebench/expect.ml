(* Expected responses.  A response passes when its status is "ok" and
   the MD5 digest of its bytes with the "nd" member stripped equals the
   committed digest for its context (render always puts "nd" last).

   A compile response depends only on which plan it carries, so the
   committed tables are keyed by context, not by position in a stream:
   - plans.tsv: every (circuit, policy, epoch) of W x 52 days;
   - drift.tsv: per drift lap, the ack's digest and the epoch each key's
     plan was compiled for after that lap's migration (migration decides
     each cached plan on its own, so the lap's request order does not
     matter; regen checks this on two seeds);
   - estimate.tsv: every estimate line of the default seed.
   Under any other seed the estimate lines carry other mc_seeds, so
   their digests come from replaying those lines in-process. *)

(* Whether [sub] occurs in [s] at [i], without allocating: this runs on
   every response while the client measures. *)
let occurs_at s i sub =
  let m = String.length sub in
  let rec from j = j = m || (s.[i + j] = sub.[j] && from (j + 1)) in
  i >= 0 && i + m <= String.length s && from 0

let nd_marker = ",\"nd\":"

let nd_start s =
  let rec back i = if i < 0 then None else if occurs_at s i nd_marker then Some i else back (i - 1) in
  back (String.length s - String.length nd_marker)

let strip_nd s = match nd_start s with Some i -> String.sub s 0 i ^ "}" | None -> s
let digest s = Digest.to_hex (Digest.string (strip_nd s))
let ok s = occurs_at s 0 "{\"status\":\"ok\""

(* The response's nd.cache reads "hit". *)
let cache_hit s =
  match nd_start s with
  | Some i -> occurs_at s (i + String.length nd_marker) "{\"cache\":\"hit\""
  | None -> false

type t = {
  plans : string array;  (** [key * days + epoch] -> digest *)
  drift_acks : string array;  (** lap -> digest *)
  drift_epochs : int array array;  (** lap -> key -> compile epoch *)
  estimates : string array;  (** estimate line (default seed) -> digest *)
}

let path ~dir name = Filename.concat dir (Filename.concat "expected" name)
let plan_index ~key ~epoch = (key * Wl.days) + epoch

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (String.split_on_char '\t')

let load ~dir =
  let key_of = Hashtbl.create Wl.keys in
  for k = 0 to Wl.keys - 1 do
    Hashtbl.replace key_of (Wl.circuit_of k, Wl.policy_of k) k
  done;
  let plans = Array.make (Wl.keys * Wl.days) "" in
  List.iter
    (function
      | [ c; p; e; d ] -> (
        match Hashtbl.find_opt key_of (c, p) with
        | Some key -> plans.(plan_index ~key ~epoch:(int_of_string e)) <- d
        | None -> failwith ("plans.tsv: unknown key " ^ c ^ " " ^ p))
      | _ -> failwith "plans.tsv: malformed line")
    (read_lines (path ~dir "plans.tsv"));
  let drift =
    List.map
      (function
        | [ _lap; ack; epochs ] ->
          ( ack,
            Array.of_list (List.map int_of_string (String.split_on_char ' ' epochs))
          )
        | _ -> failwith "drift.tsv: malformed line")
      (read_lines (path ~dir "drift.tsv"))
  in
  let estimates =
    List.map
      (function [ _line; d ] -> d | _ -> failwith "estimate.tsv: malformed line")
      (read_lines (path ~dir "estimate.tsv"))
  in
  {
    plans;
    drift_acks = Array.of_list (List.map fst drift);
    drift_epochs = Array.of_list (List.map snd drift);
    estimates = Array.of_list estimates;
  }

let write_lines file lines =
  Out_channel.with_open_bin file (fun oc ->
      List.iter (fun l -> output_string oc (String.concat "\t" l ^ "\n")) lines)

let save ~dir t =
  write_lines (path ~dir "plans.tsv")
    (List.concat_map
       (fun key ->
         List.init Wl.days (fun epoch ->
             [
               Wl.circuit_of key; Wl.policy_of key; string_of_int epoch;
               t.plans.(plan_index ~key ~epoch);
             ]))
       (List.init Wl.keys Fun.id));
  write_lines (path ~dir "drift.tsv")
    (List.init (Array.length t.drift_acks) (fun lap ->
         [
           string_of_int lap; t.drift_acks.(lap);
           String.concat " "
             (Array.to_list (Array.map string_of_int t.drift_epochs.(lap)));
         ]));
  write_lines (path ~dir "estimate.tsv")
    (List.mapi (fun i d -> [ string_of_int i; d ]) (Array.to_list t.estimates))

(* The expected digest of the response to [line] of workload [w], sent
   during drift lap [lap] (-1 before the first advance).  [estimates]
   maps the workload's estimate lines to digests for this seed.  [None]
   when the tables do not cover the context. *)
let expected t (w : Wl.t) ~estimates ~lap index =
  let line = w.Wl.lines.(index) in
  if Wl.control line then
    if lap < Array.length t.drift_acks then Some t.drift_acks.(lap) else None
  else if line.Wl.estimate then estimates (index - Wl.keys)
  else if w.Wl.drift && lap >= 0 then
    if lap < Array.length t.drift_epochs then
      Some t.plans.(plan_index ~key:line.Wl.key ~epoch:t.drift_epochs.(lap).(line.Wl.key))
    else None
  else Some t.plans.(plan_index ~key:line.Wl.key ~epoch:line.Wl.epoch)
