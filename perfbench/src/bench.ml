(** The benchmark runner: timed runs of one workload for a fixed number
    of seconds, or the traced run that produces per-layer numbers.

    Timed runs carry no tracing: no span recorder, no campaign flight
    recorder, no progress sink and no [Runtime_events] consumer.  The
    traced run alternates an untraced and a traced run of the same inputs,
    so [trace.overhead_frac] is measured on identical work. *)

module J = Obs.Json

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
}

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b > 0.0 then a /. b else 0.0

(** Campaign seed of the [i]-th run of a benchmark invocation: the
    invocation's own seed first, then seeds derived from it, so the same
    seed always gives the same sequence of inputs. *)
let run_seed seed i =
  if i = 0 then seed else ((seed * 1_000_003) + (i * 7_919)) land 0x3FFFFFFF

(* Peak resident memory of this process (VmHWM), reset before each run
   when the kernel allows it. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_bin "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                   Some (float_of_int kb /. 1024.0))
             | _ -> None)
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* ----- timed runs ----- *)

type check_tally = { mutable attempted : int; mutable failed : int }

let tally_checks tally ~label checks =
  List.iter
    (fun (name, ok) ->
      tally.attempted <- tally.attempted + 1;
      if not ok then begin
        tally.failed <- tally.failed + 1;
        Printf.printf "FAILED  %s: %s\n%!" label name
      end)
    checks

(** What [work_per_sec] counts: plans priced on optimize, trials elsewhere. *)
let work_name workload = if workload = "optimize" then "plans" else "trials"

let run_checks ~refs ~workload ~tally ~i (c : Work.ctx) (r : Work.result) =
  tally_checks tally ~label:workload r.checks;
  tally_checks tally ~label:workload
    (Oracle.check refs ~workload ~seed:c.seed ~seeded:(i = 0) r.facts)

let print_run workload i (c : Work.ctx) (r : Work.result) =
  Printf.printf "%-9s run %d seed %d: wall %.3f s, setup %.3f s, %d %s in %.3f s\n%!"
    workload i c.seed r.wall r.setup r.work
    (work_name workload)
    r.work_sec

let quartiles xs =
  (percentile 0.25 xs, median xs, percentile 0.75 xs)

let print_metric workload name unit_ v note =
  Printf.printf "%-9s %-18s %14.6g %-9s %s\n%!" workload name v unit_ note

(** Timed runs a timed invocation makes at least. *)
let min_runs = 2

(** Shortest set-up sample: a workload's set-up is repeated until the
    repetitions add up to this many seconds. *)
let setup_block = 0.4

(** One set-up sample, taken between runs from a collected heap: the mean
    set-up time of as many set-up-only repetitions as fill {!setup_block}
    (at least one). *)
let setup_sample (w : Work.workload) c =
  Gc.full_major ();
  let rec go n total =
    let a = Work.new_acc () in
    w.prepare c a;
    let total = total +. a.a_setup in
    if total >= setup_block then total /. float_of_int n else go (n + 1) total
  in
  go 1 0.0

(** Timed runs of [workload] for about [seconds]: runs, each followed by
    a set-up sample, until the next would end past [seconds] (at least
    {!min_runs}; only run 0 when recording references); medians of the
    per-run figures and of the set-up samples. *)
let timed ~workload ~(w : Work.workload) ~seed ~seconds ~dir ~refs ~record =
  let tally = { attempted = 0; failed = 0 } in
  let t0 = now () in
  let rec loop i acc =
    let c = { Work.seed = run_seed seed i; deep = i = 0; tr = None; dir } in
    (* Every run starts from a collected heap and its own memory peak. *)
    Gc.full_major ();
    reset_peak_rss ();
    let r = w.run c in
    let rss = peak_rss_mb () in
    print_run workload i c r;
    run_checks ~refs ~workload ~tally ~i c r;
    let setup = setup_sample w c in
    Printf.printf "%-9s run %d set-up sample %.4f s\n%!" workload i setup;
    let acc = (r, rss, setup) :: acc in
    let elapsed = now () -. t0 in
    let per_run = elapsed /. float_of_int (i + 1) in
    if record || (i + 1 >= min_runs && elapsed +. per_run > seconds) then List.rev acc
    else loop (i + 1) acc
  in
  let runs = loop 0 [] in
  let setups = List.map (fun (_, _, s) -> s) runs in
  let rsss = List.map (fun (_, m, _) -> m) runs in
  let rss = median rsss in
  let rs = List.map (fun (r, _, _) -> r) runs in
  let first = List.hd rs in
  let walls = List.map (fun (r : Work.result) -> r.wall) rs in
  let rates =
    List.map (fun (r : Work.result) -> ratio (float_of_int r.work) r.work_sec) rs
  in
  let spread xs =
    let q1, _, q3 = quartiles xs in
    Printf.sprintf "median of %d, q1 %.6g q3 %.6g" (List.length xs) q1 q3
  in
  print_metric workload "wall_s" "s" (median walls) (spread walls);
  print_metric workload "setup_s" "s" (median setups) (spread setups);
  print_metric workload
    (work_name workload ^ "_per_sec")
    (work_name workload ^ "/s") (median rates) (spread rates);
  print_metric workload "peak_rss_mb" "MB" rss (spread rsss);
  print_metric workload "failed_frac" "ratio"
    (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    (Printf.sprintf "%d of %d checks failed" tally.failed tally.attempted);
  List.iter
    (fun (name, v) ->
      print_metric workload name "%" v
        (Printf.sprintf "simulated, run 0 (seed %d)" seed))
    first.sim;
  let refs =
    if record then Oracle.record refs ~workload ~seed first.facts else refs
  in
  ( { metrics =
        [ { name = "wall_s"; unit_ = "s"; value = median walls };
          { name = "setup_s"; unit_ = "s"; value = median setups };
          { name = "work_per_sec"; unit_ = "1/s"; value = median rates };
          { name = "peak_rss_mb"; unit_ = "MB"; value = rss } ];
      attempted = tally.attempted; failed = tally.failed },
    refs )

(* ----- the traced run ----- *)

let domains = Work.domains

(* Per-layer values of one traced run. *)
let layer_values (t : Spans.t) ~run ~(p : Probes.t) ~minor ~major ~pause_share =
  let spans = Spans.of_run t run in
  let self = Spans.layer_self (Spans.main_timeline spans) in
  let s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let cnt = Spans.counter t ~run in
  let golden_s = s "interp.golden" and steps = cnt "interp.golden_steps" in
  let busy, cap, mx, mn =
    List.fold_left
      (fun (busy, cap, mx, mn) (ph : Spans.span) ->
        if ph.name <> "faults.trial_phase" then (busy, cap, mx, mn)
        else
          let ws =
            List.filter_map
              (fun (w : Spans.span) ->
                if w.pool && w.parent = ph.id && w.name = "faults.pool.worker"
                then Some (w.t1 -. w.t0)
                else None)
              spans
          in
          let sum = List.fold_left ( +. ) 0.0 ws in
          let k = float_of_int (max 1 (List.length ws)) in
          ( busy +. sum,
            cap +. (float_of_int domains *. (ph.t1 -. ph.t0)),
            mx +. List.fold_left Float.max 0.0 ws,
            mn +. (sum /. k) ))
      (0.0, 0.0, 0.0, 0.0) spans
  in
  [ ("profiling.profile_s", "s", s "profiling.profile" +. p.profile_s);
    ("transform.protect_s", "s", p.pipeline_s);
    ("interp.compile_s", "s", p.compile_s);
    ("interp.golden_s", "s", golden_s);
    ("interp.golden_steps", "count", steps);
    ("interp.ns_per_step", "ns", ratio golden_s steps *. 1e9);
    ("interp.alloc_words_per_step", "words", p.alloc_words_per_step);
    ("interp.fork_capture_s", "s", cnt "run.setup_sec" +. cnt "run.adaptive_capture_sec");
    ("interp.snapshot_words", "words", p.snapshot_words);
    ("interp.restore_us", "us", p.restore_us);
    ("interp.image_words", "words", p.image_words);
    ("faults.trial_phase_s", "s", s "faults.trial_phase");
    ("faults.classify_us", "us", p.classify_us);
    ("faults.pool.busy_frac", "ratio", ratio busy cap);
    ("faults.pool.imbalance", "ratio", ratio mx mn);
    ("faults.masked_frac", "ratio", ratio (cnt "faults.masked") (cnt "faults.trials"));
    ("faults.dead_fault_step_frac", "ratio",
     ratio (cnt "taint.dead_steps") (cnt "taint.post_steps"));
    ("faults.adaptive_setup_s", "s",
     Float.max 0.0 (cnt "run.adaptive_setup_sec" -. cnt "run.adaptive_capture_sec"));
    ("faults.journal.write_s", "s", s "faults.journal.write");
    ("faults.journal.load_s", "s", s "faults.journal.load");
    ("faults.journal.bytes", "B", cnt "faults.journal.bytes");
    ("warehouse.file_s", "s", s "warehouse.file");
    ("warehouse.query_s", "s", s "warehouse.query");
    ("analysis.coverage_s", "s", s "analysis.coverage");
    ("optimize.search_s", "s", s "optimize.search");
    ("optimize.plans_explored", "count", cnt "optimize.plans_explored");
    ("optimize.frontier_size", "count", cnt "optimize.frontier_size");
    ("analysis.us_per_plan", "us",
     ratio (s "optimize.search") (cnt "optimize.plans_explored") *. 1e6);
    ("experiments.render_s", "s", s "experiments.render");
    ("gc.minor_collections", "count", minor);
    ("gc.major_collections", "count", major);
    ("gc.pause_share", "ratio", pause_share);
    ("trace.uncovered_s", "s", s "perfbench") ]

(** Share of the run's domain-time spent in GC pauses: the rings that
    paused longest, at most one per worker domain (the campaign workers;
    a single-domain run has one), over their count x wall. *)
let pause_share pauses ~wall =
  let top =
    List.sort (fun a b -> compare b a) (List.map snd pauses)
    |> List.filteri (fun i p -> i < domains && p > 0.0)
  in
  ratio (List.fold_left ( +. ) 0.0 top)
    (float_of_int (List.length top) *. wall)

(* Metrics pooled over the traced run's pairs rather than taken per run. *)
let pooled ~trial ~scratch ~overheads =
  [ { name = "faults.trial_ms.p50"; unit_ = "ms"; value = percentile 0.5 trial };
    { name = "faults.trial_ms.p99"; unit_ = "ms"; value = percentile 0.99 trial };
    { name = "faults.trial_ms.samples"; unit_ = "count";
      value = float_of_int (List.length trial) };
    { name = "faults.scratch_trial_ms.p50"; unit_ = "ms";
      value = percentile 0.5 scratch };
    { name = "faults.scratch_trial_ms.samples"; unit_ = "count";
      value = float_of_int (List.length scratch) };
    { name = "trace.overhead_frac"; unit_ = "ratio"; value = median overheads } ]

let pooled_names =
  List.map (fun m -> m.name) (pooled ~trial:[] ~scratch:[] ~overheads:[])

let traced ~workload ~(w : Work.workload) ~seed ~seconds ~dir ~refs =
  let tally = { attempted = 0; failed = 0 } in
  let t = Spans.create () in
  let gcev = Gcev.create () in
  let t0 = now () in
  let rec loop i acc =
    let c = { Work.seed = run_seed seed i; deep = i = 0; tr = None; dir } in
    let ru = w.run c in
    print_run workload i c ru;
    run_checks ~refs ~workload ~tally ~i c ru;
    Spans.new_run t;
    let run = t.run in
    Gcev.resume gcev;
    t.on_boundary <- (fun () -> Gcev.poll gcev);
    let alarm =
      Gc.create_alarm (fun () ->
          if not (Spans.inside t "faults.campaign") then Gcev.poll gcev)
    in
    let g0 = Gc.quick_stat () in
    let ct = { c with tr = Some t; deep = false } in
    let rt = w.run ct in
    let g1 = Gc.quick_stat () in
    Gc.delete_alarm alarm;
    t.on_boundary <- ignore;
    let pauses, lost = Gcev.pause gcev in
    print_run (workload ^ "+tr") i ct rt;
    run_checks ~refs ~workload ~tally ~i ct rt;
    let rc = Spans.reconcile ~wall:rt.wall (Spans.of_run t run) in
    Printf.printf
      "%-9s run %d reconcile: layers %.4f s + uncovered %.4f s vs wall %.4f s \
       (error %.5f s, tolerance %.5f s)%s\n%!"
      workload i rc.rc_layers rc.rc_uncovered rc.rc_wall rc.rc_error
      rc.rc_tolerance
      (if lost > 0 then Printf.sprintf ", %d GC events lost" lost else "");
    tally_checks tally ~label:workload
      [ (Printf.sprintf "run %d: layer self times reconcile with wall time" i,
         rc.rc_ok) ];
    let p = Probes.run rt.probes in
    let vals =
      layer_values t ~run ~p
        ~minor:(float_of_int (g1.minor_collections - g0.minor_collections))
        ~major:(float_of_int (g1.major_collections - g0.major_collections))
        ~pause_share:(pause_share pauses ~wall:rt.wall)
    in
    let acc = (vals, ratio rt.wall ru.wall -. 1.0) :: acc in
    if now () -. t0 >= seconds then List.rev acc else loop (i + 1) acc
  in
  let runs = loop 0 [] in
  Gcev.close gcev;
  let names = List.map (fun (n, u, _) -> (n, u)) (fst (List.hd runs)) in
  let per_run =
    List.map
      (fun (name, unit_) ->
        let vs =
          List.map
            (fun (vals, _) ->
              List.find_map (fun (n, _, v) -> if n = name then Some v else None) vals
              |> Option.value ~default:0.0)
            runs
        in
        { name; unit_; value = median vs })
      names
  in
  let samples name =
    Option.value ~default:[] (Hashtbl.find_opt t.samples name)
  in
  let metrics =
    per_run
    @ pooled ~trial:(samples "faults.trial_ms")
        ~scratch:(samples "faults.scratch_trial_ms")
        ~overheads:(List.map snd runs)
  in
  List.iter
    (fun m ->
      print_metric workload m.name m.unit_ m.value
        (Printf.sprintf "traced, %d runs" (List.length runs)))
    metrics;
  let path =
    Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (Spans.to_chrome t));
      output_char oc '\n');
  Printf.printf "%-9s spans written to %s\n%!" workload path;
  { metrics; attempted = tally.attempted; failed = tally.failed }

(* ----- provenance ----- *)

(** Digest of the library sources, identifying the code measured even
    where the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat dir f))
    else if Filename.check_suffix dir ".ml" || Filename.check_suffix dir ".mli"
    then [ dir ]
    else []
  in
  match files "lib" with
  | [] -> "unknown"
  | fs ->
    Digest.to_hex
      (Digest.string
         (String.concat "\000"
            (List.map (fun f -> f ^ "\000" ^ Digest.to_hex (Digest.file f)) fs)))

let provenance ~workload ~seed ~seconds ~trace ~commit =
  J.Obj
    [ ("host_cores", J.Int (Domain.recommended_domain_count ()));
      ("domains", J.Int domains);
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str commit);
      ("source_digest", J.Str (source_digest ()));
      ("seed", J.Int seed);
      ("workload", J.Str workload);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace) ]

let result_json ~attempted ~failed metrics =
  J.Obj
    [ ("correct", J.Bool (failed = 0 && attempted > 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics",
       J.Obj
         (List.map
            (fun m ->
              ( m.name,
                J.Obj
                  [ ("value",
                     J.Float (if Float.is_finite m.value then m.value else 0.0));
                    ("unit", J.Str m.unit_) ] ))
            metrics)) ]
