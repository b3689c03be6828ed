(** The benchmark's four workloads.  Each one is closed-loop (every call
    waits for the previous one) and is a function of its campaign seed.

    A workload runs untraced when the context carries no span recorder —
    then it attaches no flight recorder, progress sink or GC consumer —
    and traced otherwise: every call into a layer's public function gets a
    span, campaigns attach their [?trace] recorder and a per-trial
    [?progress] sink, and counts are recorded at the same boundaries. *)

module W = Workloads.Workload
module C = Faults.Campaign

(** Worker domains of every campaign ([nproc] = 2 on the reference host). *)
let domains = 2

let campaign_kernels = [ "jpegdec"; "kmeans" ]
let campaign_trials = 240
let reproduce_trials = 8
let observe_kernel = "kmeans"
let observe_checkpoint = 2000
let observe_ci = 0.001
let observe_max_trials = 384
let optimize_kernels = [ "kmeans"; "jpegdec" ]
let optimize_beam = 2
let optimize_budget = 0.15

type ctx = {
  seed : int;          (** campaign seed of this run *)
  deep : bool;         (** also run the costlier oracle checks *)
  tr : Spans.t option;
  dir : string;        (** scratch directory for journals and warehouse *)
}

type result = {
  wall : float;                      (** whole workload *)
  setup : float;                     (** preparing programs *)
  work : int;                        (** trials run, or plans priced *)
  work_sec : float;                  (** wall inside the calls doing [work] *)
  sim : (string * float) list;       (** simulated metrics *)
  facts : (string * string) list;    (** reference facts (see {!Oracle}) *)
  checks : (string * bool) list;     (** correctness checks *)
  probes : probe_subject list;       (** programs the layer probes use *)
}

(** A program the traced run probes outside the timed region. *)
and probe_subject = {
  ps_protected : Softft.protected;
  ps_checkpoint : int;
  ps_deep : bool;       (** also probe golden, capture, restore, classify *)
}

type acc = {
  mutable a_setup : float;
  mutable a_work : int;
  mutable a_work_sec : float;
  mutable a_checks : (string * bool) list;
  mutable a_facts : (string * string) list;
  mutable a_probes : probe_subject list;
}

let new_acc () =
  { a_setup = 0.0; a_work = 0; a_work_sec = 0.0; a_checks = []; a_facts = [];
    a_probes = [] }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** The timed region of a workload; traced, it is the run's root span,
    whose self time is the benchmark's own uncovered time. *)
let run_timed c f = timed (fun () -> Spans.with_span c.tr "perfbench" f)

let check a name ok = a.a_checks <- (name, ok) :: a.a_checks

(** A check whose evaluation may raise: an exception counts as failed. *)
let check_f a name f =
  check a name (try f () with e ->
      prerr_endline (Printf.sprintf "check %s raised %s" name
                       (Printexc.to_string e));
      false)

let fact a k v = a.a_facts <- (k, v) :: a.a_facts

(** Set-up work: timed into [setup] and, when traced, a [name] span. *)
let setup c a name f =
  Spans.with_span c.tr name (fun () ->
      let r, dt = timed f in
      a.a_setup <- a.a_setup +. dt;
      r)

let protect c a (w : W.t) technique =
  setup c a "transform.protect" (fun () -> Softft.protect w technique)

let usdc = [ Faults.Classify.Usdc_large; Faults.Classify.Usdc_small ]

let hex s = Digest.to_hex (Digest.string s)

(** Digest of a trial list: everything {!C.trial_equal} compares that has
    a stable printed form. *)
let trials_digest (trials : C.trial list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t : C.trial) ->
      Printf.bprintf b "%d,%d,%s,%d,%d,%s,%d;" t.trial_seed t.at_step
        (Faults.Classify.name t.outcome) t.steps t.cycles
        (match t.detect_latency with Some l -> string_of_int l | None -> "-")
        t.checkpoints)
    trials;
  hex (Buffer.contents b)

let counts_string (s : C.summary) =
  String.concat ","
    (List.map
       (fun (o, n) -> Printf.sprintf "%s=%d" (Faults.Classify.name o) n)
       s.counts)

(** Per-trial service times: gaps between successive completions on the
    same domain, stamped by a progress sink that fires on every trial. *)
let service_sink () =
  let last = Hashtbl.create 4 and gaps = ref [] in
  let sink (snap : Faults.Progress.snapshot) =
    if not snap.pg_final then begin
      let now = Unix.gettimeofday () in
      let d = (Domain.self () :> int) in
      (match Hashtbl.find_opt last d with
       | Some prev -> gaps := ((now -. prev) *. 1e3) :: !gaps
       | None -> ());
      Hashtbl.replace last d now
    end
  in
  (sink, gaps)

(** Observation hooks handed to one campaign call. *)
type hooks = {
  trace : Obs.Trace.recorder option;
  stats_out : C.run_stats option ref option;
  progress : Faults.Progress.t option;
}

let no_hooks = { trace = None; stats_out = None; progress = None }

(** Run [f hooks] as one campaign call.  Traced, it
    gets a flight recorder, a stats cell and a service-time progress sink,
    whose readings become child spans and counts of a [faults.campaign]
    span; untraced, it gets nothing. *)
let campaign_call ?(adaptive = false) c a ~trials f =
  match c.tr with
  | None ->
    let r, dt = timed (fun () -> f no_hooks) in
    a.a_work_sec <- a.a_work_sec +. dt;
    r
  | Some t ->
    Spans.with_span c.tr "faults.campaign" (fun () ->
        let rc = Obs.Trace.recorder () in
        let epoch = Unix.gettimeofday () -. (Obs.Trace.now_us rc /. 1e6) in
        let stats = ref None in
        let sink, gaps = service_sink () in
        let pg = Faults.Progress.create ~interval:0.0 ~sinks:[ sink ] ~total:trials () in
        let r, dt =
          timed (fun () ->
              f { trace = Some rc; stats_out = Some stats; progress = Some pg })
        in
        a.a_work_sec <- a.a_work_sec +. dt;
        Spans.import t ~epoch rc;
        Spans.samples c.tr "faults.trial_ms" !gaps;
        let capture =
          List.fold_left
            (fun s (d : Obs.Trace.dur) ->
              if d.du_name = "fork_capture" then s +. (d.du_dur_us /. 1e6) else s)
            0.0 (Obs.Trace.durs rc)
        in
        (match !stats with
         | Some (rs : C.run_stats) when adaptive ->
           Spans.count c.tr "run.adaptive_setup_sec" rs.setup_sec;
           Spans.count c.tr "run.adaptive_capture_sec" capture
         | Some rs -> Spans.count c.tr "run.setup_sec" rs.setup_sec
         | None -> ());
        r)

let note_summary c (s : C.summary) =
  Spans.count c.tr "interp.golden_steps" (float_of_int s.golden_info.steps);
  Spans.count c.tr "faults.trials" (float_of_int s.trials);
  Spans.count c.tr "faults.masked" (float_of_int (C.count s Faults.Classify.Masked))

(** Re-run a seeded sample of a uniform campaign's trials through the
    serial from-scratch oracle {!C.run_trial}; each must equal the
    campaign's (forked, parallel) trial bit for bit. *)
let scratch_oracle c a ~label ~sample (subj : C.subject) (s : C.summary)
    (trials : C.trial list) =
  let arr = Array.of_list trials in
  let n = Array.length arr in
  let golden = s.golden_info in
  let disabled = Hashtbl.create 8 in
  List.iter (fun uid -> Hashtbl.replace disabled uid ()) golden.failing_checks;
  let rng = Random.State.make [| c.seed; n |] in
  let times = ref [] in
  for k = 1 to min sample n do
    let i = Random.State.int rng n in
    check_f a (Printf.sprintf "%s: trial %d equals the from-scratch oracle (%d)" label i k)
      (fun () ->
        let t, dt =
          timed (fun () ->
              C.run_trial subj ~golden ~disabled
                ~hw_window:Faults.Classify.default_hw_window
                ~seed:arr.(i).trial_seed)
        in
        times := (dt *. 1e3) :: !times;
        C.trial_equal t arr.(i))
  done;
  Spans.samples c.tr "faults.scratch_trial_ms" !times

let summary_checks a ~label ~trials (s : C.summary) =
  check a (label ^ ": trial count") (s.trials = trials);
  check a (label ^ ": outcome counts sum to the trial count")
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.counts = trials)

let finish a ~wall ~sim =
  { wall; setup = a.a_setup; work = a.a_work; work_sec = a.a_work_sec; sim;
    facts = List.rev a.a_facts; checks = List.rev a.a_checks;
    probes = List.rev a.a_probes }

(* ----- campaign: uniform register-bit campaigns, the trial hot path ----- *)

let prepare_campaign c a =
  List.map
    (fun name -> (name, protect c a (Workloads.Registry.find name) Softft.Dup_valchk))
    campaign_kernels

let campaign c =
  let a = new_acc () in
  let results, wall =
    run_timed c (fun () ->
        List.map
          (fun (name, p) ->
            let s, trials =
              campaign_call c a ~trials:campaign_trials
                (fun h ->
                  Softft.campaign p ~role:W.Test ~trials:campaign_trials
                    ~seed:c.seed ~domains ?trace:h.trace ?stats_out:h.stats_out
                    ?progress:h.progress)
            in
            a.a_work <- a.a_work + campaign_trials;
            (name, p, s, trials))
          (prepare_campaign c a))
  in
  let usdc_sum =
    List.fold_left
      (fun acc (name, p, (s : C.summary), trials) ->
        note_summary c s;
        a.a_probes <- { ps_protected = p; ps_checkpoint = 0; ps_deep = true } :: a.a_probes;
        summary_checks a ~label:name ~trials:campaign_trials s;
        fact a (Printf.sprintf "any.%s.golden_steps" name) (string_of_int s.golden_info.steps);
        fact a (Printf.sprintf "any.%s.golden_cycles" name) (string_of_int s.golden_info.cycles);
        fact a (Printf.sprintf "%s.counts" name) (counts_string s);
        fact a (Printf.sprintf "%s.trials" name) (trials_digest trials);
        scratch_oracle c a ~label:name ~sample:4 (Softft.subject p ~role:W.Test) s trials;
        acc +. C.percent_many s usdc)
      0.0 results
  in
  finish a ~wall
    ~sim:[ ("usdc_pct", usdc_sum /. float_of_int (List.length results)) ]

(* ----- reproduce: the paper-table sweep ----- *)

let render results =
  let module E = Softft.Experiments in
  let b = Buffer.create 16384 in
  let table header rows =
    Buffer.add_string b (Softft.Report.render ~header ~rows);
    Buffer.add_char b '\n'
  in
  table E.fig2_header (E.fig2_rows results);
  table E.fig10_header (E.fig10_rows results);
  table E.fig11_header (E.fig11_rows results);
  table E.fig12_header (E.fig12_rows results);
  table E.fig13_header (E.fig13_rows results);
  table E.falsepos_header (E.falsepos_rows results);
  let csv = E.to_csv results in
  Buffer.add_string b csv;
  (csv, Buffer.contents b)

(* The untraced sweep is [Experiments.evaluate] itself; its [?log] events
   bracket each cell ("campaign start" before protect, "campaign done"
   after the campaign, carrying the campaign's wall time), which splits
   the sweep into set-up (protect + golden reference) and campaign time. *)
let evaluate_untraced c a =
  let start = ref 0.0 and setup = ref 0.0 and camp = ref 0.0 in
  let sink (e : Obs.Log.event) =
    match e.message with
    | "campaign start" -> start := e.ts
    | "campaign done" ->
      let cw =
        match List.assoc_opt "wall_sec" e.fields with
        | Some j -> Option.value ~default:0.0 (Obs.Json.to_float j)
        | None -> 0.0
      in
      setup := !setup +. (e.ts -. !start -. cw);
      camp := !camp +. cw
    | _ -> ()
  in
  let log = Obs.Log.make ~sinks:[ sink ] "perfbench" in
  let results =
    Softft.Experiments.evaluate ~trials:reproduce_trials ~seed:c.seed ~domains ~log
      Workloads.Registry.all
  in
  a.a_setup <- a.a_setup +. !setup;
  a.a_work_sec <- a.a_work_sec +. !camp;
  results

(* The traced sweep drives the same cells through the same public calls
   [evaluate] makes, so each cell's layers get their own spans. *)
(* One cell's set-up: protect, then the golden reference run. *)
let prepare_cell c a w technique =
  let p = protect c a w technique in
  let golden =
    setup c a "interp.golden" (fun () -> Softft.golden p ~role:W.Test)
  in
  Spans.count c.tr "interp.golden_steps" (float_of_int golden.steps);
  (p, golden)

let prepare_reproduce c a =
  List.iter
    (fun w ->
      List.iter (fun t -> ignore (prepare_cell c a w t)) Softft.all_techniques)
    Workloads.Registry.all

let evaluate_traced c a =
  List.map
    (fun (w : W.t) ->
      let baseline = ref None in
      let cells =
        List.map
          (fun technique ->
            let p, golden = prepare_cell c a w technique in
            if technique = Softft.Original then baseline := Some golden;
            let overhead =
              match !baseline with
              | Some base ->
                (float_of_int golden.cycles /. float_of_int base.cycles) -. 1.0
              | None -> 0.0
            in
            let summary, (_ : C.trial list) =
              campaign_call c a ~trials:reproduce_trials
                (fun h ->
                  Softft.campaign p ~role:W.Test ~trials:reproduce_trials
                    ~seed:c.seed ~domains ?trace:h.trace ?stats_out:h.stats_out
                    ?progress:h.progress)
            in
            a.a_probes <-
              { ps_protected = p; ps_checkpoint = 0;
                ps_deep = technique = Softft.Dup_valchk }
              :: a.a_probes;
            { Softft.Experiments.technique; static_stats = p.static_stats; golden;
              overhead; summary })
          Softft.all_techniques
      in
      { Softft.Experiments.workload = w; cells })
    Workloads.Registry.all

(** The columns of [to_csv] that do not depend on the campaign seed:
    benchmark, technique, overhead and the static statistics. *)
let static_columns csv =
  String.split_on_char '\n' csv
  |> List.map (fun line ->
         match String.split_on_char ',' line with
         | b :: t :: rest when List.length rest = 15 ->
           String.concat "," (b :: t :: List.filteri (fun i _ -> i >= 8) rest)
         | _ -> line)
  |> String.concat "\n"

let reproduce c =
  let module E = Softft.Experiments in
  let a = new_acc () in
  let (results, csv, rendered), wall =
    run_timed c (fun () ->
        let results =
          match c.tr with
          | None -> evaluate_untraced c a
          | Some _ -> evaluate_traced c a
        in
        let csv, rendered =
          Spans.with_span c.tr "experiments.render" (fun () -> render results)
        in
        (results, csv, rendered))
  in
  let cells = List.concat_map (fun (r : E.bench_result) -> r.cells) results in
  a.a_work <- List.length cells * reproduce_trials;
  List.iter
    (fun (r : E.bench_result) ->
      List.iter
        (fun (cell : E.cell) ->
          note_summary c cell.summary;
          summary_checks a
            ~label:(r.workload.name ^ "/" ^ Softft.technique_name cell.technique)
            ~trials:reproduce_trials cell.summary)
        r.cells)
    results;
  check a "reproduce: 13 kernels x 4 techniques"
    (List.length results = 13 && List.length cells = 52);
  check a "reproduce: tables rendered" (String.length rendered > String.length csv);
  fact a "csv" (hex csv);
  fact a "any.csv_static" (hex (static_columns csv));
  (* The from-scratch oracle on one seeded cell: every trial of that
     campaign re-run serially must reproduce the cell's outcome counts. *)
  if c.deep then begin
    let rng = Random.State.make [| c.seed |] in
    let r = List.nth results (Random.State.int rng (List.length results)) in
    let cell = List.nth r.cells (Random.State.int rng (List.length r.cells)) in
    let label = r.workload.name ^ "/" ^ Softft.technique_name cell.technique in
    check_f a (label ^ ": counts equal the from-scratch oracle") (fun () ->
        let p = Softft.protect r.workload cell.technique in
        let subj = Softft.subject p ~role:W.Test in
        let golden = cell.summary.golden_info in
        let disabled = Hashtbl.create 8 in
        List.iter (fun uid -> Hashtbl.replace disabled uid ()) golden.failing_checks;
        let seeds = C.derive_seeds ~seed:c.seed ~trials:reproduce_trials in
        let outcomes =
          Array.to_list
            (Array.map
               (fun seed ->
                 (C.run_trial subj ~golden ~disabled
                    ~hw_window:Faults.Classify.default_hw_window ~seed).outcome)
               seeds)
        in
        List.for_all
          (fun (o, n) -> List.length (List.filter (( = ) o) outcomes) = n)
          cell.summary.counts)
  end;
  let dv =
    List.map (fun (r : E.bench_result) -> E.find_cell r Softft.Dup_valchk) results
  in
  let mean f = List.fold_left (fun s x -> s +. f x) 0.0 dv /. float_of_int (List.length dv) in
  finish a ~wall
    ~sim:
      [ ("usdc_pct", C.mean_percent (List.map (fun (x : E.cell) -> x.summary) dv) usdc);
        ("overhead_pct", mean (fun (x : E.cell) -> 100.0 *. x.overhead)) ]

(* ----- observe: adaptive, taint-traced, checkpointed campaign plus its
   journal and warehouse round trip ----- *)

let rm_rf dir =
  let rec go path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  go dir

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let prepare_observe c a =
  let p = protect c a (Workloads.Registry.find observe_kernel) Softft.Dup_valchk in
  let groups, priors =
    setup c a "analysis.coverage" (fun () ->
        let cov = Analysis.Coverage.analyze p.prog in
        (Analysis.Strata.reg_groups p.prog cov, Analysis.Strata.priors cov))
  in
  (p, groups, priors)

let observe c =
  let a = new_acc () in
  let dir = Filename.concat c.dir "observe" in
  rm_rf dir;
  mkdir_p dir;
  let journal = Filename.concat dir "journal.jsonl" in
  let store = Filename.concat dir "warehouse" in
  let layer name f = Spans.with_span c.tr name f in
  let (s, trials, ad, views, filed, entries, gate), wall =
    run_timed c (fun () ->
        let p, groups, priors = prepare_observe c a in
        a.a_probes <-
          [ { ps_protected = p; ps_checkpoint = observe_checkpoint; ps_deep = true } ];
        let subj = Softft.subject p ~role:W.Test in
        let s, trials, ad =
          campaign_call ~adaptive:true c a ~trials:observe_max_trials
            (fun h ->
              C.run_adaptive ~seed:c.seed ~domains
                ~checkpoint_interval:observe_checkpoint ~taint_trace:true
                ?trace:h.trace ?stats_out:h.stats_out
                ?progress_for:(Option.map (fun pg ~nstrata:_ ~total:_ -> pg) h.progress)
                ~max_trials:observe_max_trials ~groups
                ~group_names:Analysis.Strata.group_names ~priors ~ci:observe_ci
                subj)
        in
        a.a_work <- a.a_work + s.trials;
        let manifest =
          Faults.Journal.manifest_record ~git:"perfbench"
            ~technique:(Softft.technique_name Softft.Dup_valchk)
            ~counts:s.counts ~adaptive:ad ~checkpoint_interval:observe_checkpoint
            ~taint_trace:true ~label:(observe_kernel ^ "/dup_valchk/test")
            ~trials:s.trials ~seed:c.seed ~domains
            ~hw_window:Faults.Classify.default_hw_window ~fault_kind:"register_bit"
            ~golden:s.golden_info ()
        in
        layer "faults.journal.write" (fun () ->
            Faults.Journal.write ~path:journal ~manifest ~trials ());
        let filed =
          layer "warehouse.file" (fun () ->
              Warehouse.Store.file_run
                ~prog_digest:(Warehouse.Store.prog_digest p.prog) ~dir:store
                ~manifest ~trials ())
        in
        let _, views = layer "faults.journal.load" (fun () -> Faults.Journal.load journal) in
        let entries, gate =
          layer "warehouse.query" (fun () ->
              let e = Warehouse.Store.entries ~dir:store in
              (e, Warehouse.Store.regress ~baseline:e ~current:e ()))
        in
        (s, trials, ad, views, filed, entries, gate))
  in
  note_summary c s;
  Spans.count c.tr "faults.journal.bytes"
    (float_of_int (Unix.stat journal).Unix.st_size);
  (* Room for early termination: post-injection steps run after the
     taint set emptied, over all post-injection steps. *)
  List.iter
    (fun (t : C.trial) ->
      match t.taint with
      | Some ts when ts.ts_seeded ->
        let post = Option.value ~default:0 ts.ts_end_distance in
        Spans.count c.tr "taint.post_steps" (float_of_int post);
        (match ts.ts_died_at with
         | Some d -> Spans.count c.tr "taint.dead_steps" (float_of_int (max 0 (post - d)))
         | None -> ())
      | Some _ | None -> ())
    trials;
  summary_checks a ~label:"observe" ~trials:(List.length trials) s;
  check a "observe: adaptive tally matches the trial list" (ad.ad_trials = s.trials);
  check a "observe: every trial carries a taint summary"
    (List.for_all (fun (t : C.trial) -> t.taint <> None) trials);
  check a "observe: journal reads back every trial"
    (List.length views = List.length trials
     && List.for_all2
          (fun (v : Faults.Journal.view) (t : C.trial) ->
            v.v_outcome = Faults.Classify.name t.outcome
            && v.v_steps = t.steps && v.v_cycles = t.cycles
            && v.v_taint <> None)
          views trials);
  check a "observe: run filed in the warehouse"
    (match filed with `Ingested _ -> true | `Duplicate _ -> false);
  check a "observe: warehouse index lists the run" (List.length entries = 1);
  check a "observe: self-regress passes"
    (gate.Warehouse.Store.rx_failures = [] && List.length gate.rx_rows = 1);
  fact a "any.golden_steps" (string_of_int s.golden_info.steps);
  fact a "any.golden_cycles" (string_of_int s.golden_info.cycles);
  fact a "counts" (counts_string s);
  fact a "trials" (trials_digest trials);
  rm_rf dir;
  finish a ~wall ~sim:[ ("usdc_pct", C.percent_many s usdc) ]

(* ----- optimize: static protection-plan search ----- *)

(* A kernel's set-up: value profile on the training input, and block
   weights from a fault-free run of the original program. *)
let prepare_kernel c a name =
  let w = Workloads.Registry.find name in
  let prog = w.build () in
  let vp = setup c a "profiling.profile" (fun () -> W.profile ~prog w) in
  let orig = protect c a w Softft.Original in
  a.a_probes <-
    { ps_protected = orig; ps_checkpoint = 0; ps_deep = false } :: a.a_probes;
  let exec_counts =
    setup c a "profiling.exec_counts" (fun () ->
        let prof = Interp.Profile.create () in
        let (_ : C.golden) = Softft.golden ~profile:prof orig ~role:W.Train in
        Interp.Profile.func_block_counts prof)
  in
  (prog, (fun uid -> Profiling.Value_profile.check_kind vp uid), exec_counts)

let prepare_optimize c a =
  List.iter (fun name -> ignore (prepare_kernel c a name)) optimize_kernels

let optimize c =
  let a = new_acc () in
  let results, wall =
    run_timed c (fun () ->
        List.map
          (fun name ->
            let prog, profile, exec_counts = prepare_kernel c a name in
            let fr, dt =
              timed (fun () ->
                  Spans.with_span c.tr "optimize.search" (fun () ->
                      Softft.Optimize.search ~beam:optimize_beam
                        ~budget:optimize_budget ~exec_counts ~profile prog))
            in
            a.a_work <- a.a_work + fr.fr_explored;
            a.a_work_sec <- a.a_work_sec +. dt;
            (name, fr))
          optimize_kernels)
  in
  List.iter
    (fun (name, (fr : Softft.Optimize.frontier)) ->
      Spans.count c.tr "optimize.plans_explored" (float_of_int fr.fr_explored);
      Spans.count c.tr "optimize.frontier_size" (float_of_int (List.length fr.fr_points));
      check a (name ^ ": frontier is non-empty") (fr.fr_points <> []);
      check a (name ^ ": frontier respects the overhead budget")
        (List.for_all
           (fun p -> Softft.Optimize.overhead p <= optimize_budget +. 1e-12)
           fr.fr_points);
      check a (name ^ ": no frontier point dominates another")
        (List.for_all
           (fun p ->
             List.for_all
               (fun q -> not (Softft.Optimize.strictly_dominates p q))
               fr.fr_points)
           fr.fr_points);
      fact a ("any." ^ name ^ ".explored") (string_of_int fr.fr_explored);
      fact a ("any." ^ name ^ ".frontier")
        (hex (Obs.Json.to_string (Softft.Optimize.frontier_json fr))))
    results;
  finish a ~wall ~sim:[]

(** A workload: its timed run, and its set-up alone (for extra set-up
    samples). *)
type workload = {
  run : ctx -> result;
  prepare : ctx -> acc -> unit;
}

let all =
  [ ("campaign", { run = campaign; prepare = (fun c a -> ignore (prepare_campaign c a)) });
    ("reproduce", { run = reproduce; prepare = prepare_reproduce });
    ("observe", { run = observe; prepare = (fun c a -> ignore (prepare_observe c a)) });
    ("optimize", { run = optimize; prepare = prepare_optimize }) ]
