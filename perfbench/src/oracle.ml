(** Stored references: the correctness oracle for outputs that must not
    drift.

    A workload run reports facts as (key, value) strings.  Keys starting
    with ["any."] do not depend on the campaign seed (golden steps and
    cycles, the seed-free columns of the table CSV, the optimizer's
    frontier) and are checked on every run; the others (outcome counts,
    trial-list digests, the table CSV digest) are checked for the seeds
    that have references.  [refs.json] holds them:
    [{"any": {workload: {key: value}}, "seeds": {seed: {workload: {key: value}}}}]. *)

module J = Obs.Json

let any_prefix = "any."

let split_any k =
  let n = String.length any_prefix in
  if String.length k > n && String.sub k 0 n = any_prefix then
    Some (String.sub k n (String.length k - n))
  else None

let section path j =
  List.fold_left
    (fun acc k -> match acc with Some j -> J.member k j | None -> None)
    (Some j) path

let load path =
  if Sys.file_exists path then
    J.parse (In_channel.with_open_bin path In_channel.input_all)
  else J.Obj []

(** Checks of [facts] against [refs]: one per fact that has a reference.
    [seeded] is false for runs whose seed is not the run's own (later
    iterations of a run use derived seeds and have no references). *)
let check refs ~workload ~seed ~seeded facts =
  List.filter_map
    (fun (k, v) ->
      let path, key =
        match split_any k with
        | Some key -> ([ "any"; workload ], key)
        | None -> ([ "seeds"; string_of_int seed; workload ], k)
      in
      if split_any k = None && not seeded then None
      else
        match Option.bind (section path refs) (J.member key) with
        | Some (J.Str expect) ->
          Some
            (Printf.sprintf "reference %s/%s (seed %d)" workload k seed,
             String.equal expect v)
        | _ -> None)
    facts

let set_path j path key v =
  let rec go j = function
    | [] -> (
      match j with
      | J.Obj kvs -> J.Obj ((key, J.Str v) :: List.remove_assoc key kvs)
      | _ -> J.Obj [ (key, J.Str v) ])
    | p :: rest ->
      let kvs = match j with J.Obj kvs -> kvs | _ -> [] in
      let sub = Option.value ~default:(J.Obj []) (List.assoc_opt p kvs) in
      J.Obj ((p, go sub rest) :: List.remove_assoc p kvs)
  in
  go j path

(** [refs] with [facts] of [workload] at [seed] recorded. *)
let record refs ~workload ~seed facts =
  List.fold_left
    (fun j (k, v) ->
      match split_any k with
      | Some key -> set_path j [ "any"; workload ] key v
      | None -> set_path j [ "seeds"; string_of_int seed; workload ] k v)
    refs facts

(* Sorted, one entry per line, so reference updates diff cleanly. *)
let rec pretty indent b = function
  | J.Obj kvs ->
    let kvs = List.sort (fun (a, _) (b, _) -> compare a b) kvs in
    Buffer.add_string b "{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b ("\n" ^ String.make (indent + 2) ' ');
        Buffer.add_string b (J.to_string (J.Str k) ^ ": ");
        pretty (indent + 2) b v)
      kvs;
    Buffer.add_string b ("\n" ^ String.make indent ' ' ^ "}")
  | j -> Buffer.add_string b (J.to_string j)

let save path refs =
  let b = Buffer.create 4096 in
  pretty 0 b refs;
  Buffer.add_char b '\n';
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)
