(* The softft benchmark.  One workload (or all four, in one process) for a
   fixed number of seconds:

     main.exe --workload campaign|reproduce|observe|optimize|all \
              --seed N --seconds S --trace 0|1

   Run it from the repository root (it reads lib/ for provenance and
   perfbench/refs.json for reference outputs, and writes scratch files
   and span dumps under .perfbench/).  Human-readable lines come first;
   the last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  The exit code is non-zero
   when any correctness check failed. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and record = ref false in
  let commit = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME campaign, reproduce, observe, optimize or all");
      ("--seed", Arg.Set_int seed, "N campaign seed of the first run");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 timed runs, or the traced layer run");
      ("--commit", Arg.Set_string commit, "ID code revision, for provenance");
      ("--record-refs", Arg.Set record,
       " store run 0's outputs as references instead of checking them") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let workloads =
    if !workload = "all" then Work.all
    else
      match List.assoc_opt !workload Work.all with
      | Some w -> [ (!workload, w) ]
      | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        Arg.usage spec usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (Sys.file_exists "lib" && Sys.is_directory "lib") then begin
    prerr_endline "run from the repository root (lib/ not found)";
    exit 2
  end;
  let dir = ".perfbench" and refs_path = "perfbench/refs.json" in
  Work.mkdir_p dir;
  let traced = !trace = 1 in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("provenance",
             Bench.provenance ~workload:!workload ~seed:!seed ~seconds:!seconds
               ~trace:traced ~commit:!commit) ]));
  let refs = ref (Oracle.load refs_path) in
  let results =
    List.map
      (fun (name, w) ->
        let o =
          if traced then
            Bench.traced ~workload:name ~w ~seed:!seed ~seconds:!seconds ~dir:dir
              ~refs:!refs
          else begin
            let o, refs' =
              Bench.timed ~workload:name ~w ~seed:!seed ~seconds:!seconds
                ~dir:dir ~refs:!refs ~record:!record
            in
            refs := refs';
            o
          end
        in
        (name, o))
      workloads
  in
  if !record then Oracle.save refs_path !refs;
  let attempted = List.fold_left (fun s (_, (o : Bench.outcome)) -> s + o.attempted) 0 results in
  let failed = List.fold_left (fun s (_, (o : Bench.outcome)) -> s + o.failed) 0 results in
  let metrics =
    match results with
    | [ (_, o) ] -> o.metrics
    | _ ->
      List.concat_map
        (fun (name, (o : Bench.outcome)) ->
          List.map (fun (m : Bench.metric) -> { m with name = name ^ "." ^ m.name }) o.metrics)
        results
  in
  print_endline (Obs.Json.to_string (Bench.result_json ~attempted ~failed metrics));
  if failed > 0 then exit 1
