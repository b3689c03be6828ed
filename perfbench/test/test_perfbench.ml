(* Tests of the benchmark's own accounting: span self times, the
   layer-reconciliation rule on synthetic and real traced runs, the
   reference oracle, and that the metric names in BENCHMARK.json, the
   metric map and the traced run's output agree. *)

open Perfbench

let span ?(pool = false) ?(track = 0) id parent t0 t1 name =
  { Spans.id; parent; run = 1; name; pool; track; t0; t1 }

let close = Alcotest.float 1e-9

let test_union () =
  Alcotest.check close "disjoint" 3.0 (Spans.union_length [ (0.0, 1.0); (2.0, 4.0) ]);
  Alcotest.check close "overlapping" 4.0
    (Spans.union_length [ (0.0, 2.0); (1.0, 3.0); (3.0, 4.0) ]);
  Alcotest.check close "nested" 2.0 (Spans.union_length [ (0.0, 2.0); (0.5, 1.0) ]);
  Alcotest.check close "empty" 0.0 (Spans.union_length [])

let test_self_times () =
  let spans =
    [ span 0 (-1) 0.0 10.0 "perfbench";
      span 1 0 1.0 4.0 "transform.protect";
      span 2 0 4.0 9.0 "faults.campaign";
      span 3 2 4.5 8.5 "faults.trial_phase";
      (* Pool workers overlap each other inside the trial phase. *)
      span ~pool:true ~track:0 4 3 4.5 8.5 "faults.pool.worker";
      span ~pool:true ~track:1 5 3 4.6 8.4 "faults.pool.worker" ]
  in
  let self = Spans.layer_self (Spans.main_timeline spans) in
  let get n = Hashtbl.find self n in
  Alcotest.check close "root self is the uncovered time" 2.0 (get "perfbench");
  Alcotest.check close "campaign self" 1.0 (get "faults.campaign");
  Alcotest.check close "trial phase keeps its whole interval" 4.0
    (get "faults.trial_phase");
  let rc = Spans.reconcile ~wall:10.0 spans in
  Alcotest.(check bool) "reconciles" true rc.rc_ok;
  Alcotest.check close "layers" 8.0 rc.rc_layers;
  Alcotest.check close "uncovered" 2.0 rc.rc_uncovered

let test_reconcile_rejects () =
  let root = span 0 (-1) 0.0 10.0 "perfbench" in
  let overlap =
    [ root; span 1 0 1.0 6.0 "a"; span 2 0 5.0 9.0 "b" ]
  in
  Alcotest.(check bool) "overlapping siblings double-count" false
    (Spans.reconcile ~wall:10.0 overlap).rc_ok;
  let outside = [ root; span 1 0 1.0 4.0 "a"; span 2 1 3.0 6.0 "b" ] in
  Alcotest.(check bool) "a child outside its parent" false
    (Spans.reconcile ~wall:10.0 outside).rc_ok;
  Alcotest.(check bool) "wall measured elsewhere disagrees" false
    (Spans.reconcile ~wall:11.0 [ root ]).rc_ok;
  Alcotest.(check bool) "two roots" false
    (Spans.reconcile ~wall:10.0 [ root; span 1 (-1) 0.0 0.0 "x" ]).rc_ok

(* A small real traced campaign: the imported flight-recorder spans nest
   under the benchmark's campaign span and the run reconciles. *)
let test_traced_campaign () =
  let t = Spans.create () in
  Spans.new_run t;
  let c = { Work.seed = 5; deep = false; tr = Some t; dir = "." } in
  let a = Work.new_acc () in
  let w = Workloads.Registry.find "kmeans" in
  let (s, trials), wall =
    Work.run_timed c (fun () ->
        let p = Work.protect c a w Softft.Dup_valchk in
        Work.campaign_call c a ~trials:24 (fun h ->
            Softft.campaign p ~role:Workloads.Workload.Test ~trials:24 ~seed:5
              ~domains:2 ?trace:h.trace ?stats_out:h.stats_out
              ?progress:h.progress))
  in
  Alcotest.(check int) "trials" 24 (List.length trials);
  Alcotest.(check int) "summary" 24 s.Faults.Campaign.trials;
  let spans = Spans.of_run t t.run in
  let names = List.sort_uniq compare (List.map (fun (s : Spans.span) -> s.name) spans) in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("has " ^ n) true (List.mem n names))
    [ "perfbench"; "transform.protect"; "faults.campaign"; "interp.golden";
      "interp.fork_capture"; "faults.trial_phase"; "faults.pool.worker";
      "faults.pool.chunk" ];
  let rc = Spans.reconcile ~wall spans in
  if not rc.rc_ok then
    Alcotest.failf "layers %.6f + uncovered %.6f vs wall %.6f (tolerance %.6f)"
      rc.rc_layers rc.rc_uncovered rc.rc_wall rc.rc_tolerance;
  let phase =
    List.find (fun (s : Spans.span) -> s.name = "faults.trial_phase") spans
  in
  List.iter
    (fun (w : Spans.span) ->
      if w.name = "faults.pool.worker" then
        Alcotest.(check int) "worker under the trial phase" phase.id w.parent)
    spans;
  Alcotest.(check bool) "service times sampled" true
    (Hashtbl.mem t.samples "faults.trial_ms")

let test_oracle () =
  let facts = [ ("any.golden_steps", "10"); ("counts", "Masked=3") ] in
  let refs = Oracle.record (Obs.Json.Obj []) ~workload:"w" ~seed:7 facts in
  let checks = Oracle.check refs ~workload:"w" ~seed:7 ~seeded:true facts in
  Alcotest.(check int) "both facts checked" 2 (List.length checks);
  Alcotest.(check bool) "all pass" true (List.for_all snd checks);
  let other = Oracle.check refs ~workload:"w" ~seed:8 ~seeded:true facts in
  Alcotest.(check int) "other seed: only seed-free facts" 1 (List.length other);
  let drift =
    Oracle.check refs ~workload:"w" ~seed:7 ~seeded:true
      [ ("any.golden_steps", "11") ]
  in
  Alcotest.(check (list bool)) "drift fails" [ false ] (List.map snd drift)

let read_json path =
  Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all)

let names_of key j =
  match Option.bind (Obs.Json.member key j) Obs.Json.to_list with
  | Some l ->
    List.filter_map
      (fun m -> Option.bind (Obs.Json.member "name" m) Obs.Json.to_str)
      l
  | None -> []

(* The traced run emits exactly the per-layer metrics BENCHMARK.json
   declares, and the metric map documents each of them. *)
let test_metric_names () =
  let bench = read_json "../../BENCHMARK.json" in
  let map = read_json "../metric_map.json" in
  let mapped =
    match Obs.Json.member "per_layer" map with
    | Some (Obs.Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  let p =
    { Probes.profile_s = 0.0; pipeline_s = 0.0; compile_s = 0.0; alloc_words_per_step = 0.0;
      snapshot_words = 0.0; image_words = 0.0; restore_us = 0.0;
      classify_us = 0.0 }
  in
  let t = Spans.create () in
  let emitted =
    List.map (fun (n, _, _) -> n)
      (Bench.layer_values t ~run:0 ~p ~minor:0.0 ~major:0.0 ~pause_share:0.0)
    @ Bench.pooled_names
  in
  let sort = List.sort compare in
  Alcotest.(check (list string)) "BENCHMARK.json per_layer = emitted"
    (sort emitted) (sort (names_of "per_layer" bench));
  Alcotest.(check (list string)) "metric map = emitted" (sort emitted) (sort mapped);
  Alcotest.(check (list string)) "end_to_end"
    [ "peak_rss_mb"; "setup_s"; "wall_s"; "work_per_sec" ]
    (sort (names_of "end_to_end" bench))

let () =
  Alcotest.run "perfbench"
    [ ("spans",
       [ Alcotest.test_case "union" `Quick test_union;
         Alcotest.test_case "self times" `Quick test_self_times;
         Alcotest.test_case "reconcile rejects" `Quick test_reconcile_rejects;
         Alcotest.test_case "traced campaign reconciles" `Quick test_traced_campaign ]);
      ("oracle", [ Alcotest.test_case "record and check" `Quick test_oracle ]);
      ("metrics", [ Alcotest.test_case "names agree" `Quick test_metric_names ]) ]
