(** Layer probes of the traced run, taken outside the timed region.

    Some layers are called only from inside another layer's public
    function (the value profiler inside [Softft.protect], the compiler,
    fork capture, memory restore and classification inside a campaign), so
    their cost cannot be read off a span around the outer call.  The
    probes call the same public functions directly on the programs the
    workload run just protected. *)

type t = {
  profile_s : float;          (** value profiling inside [protect] *)
  pipeline_s : float;         (** the transform pipeline inside [protect] *)
  compile_s : float;          (** [Interp.Compiled.of_prog], every program *)
  alloc_words_per_step : float;
  snapshot_words : float;     (** fork snapshots pinned, summed *)
  image_words : float;        (** one memory image, mean *)
  restore_us : float;         (** one [Memory.restore_image], mean *)
  classify_us : float;        (** classify + fidelity on golden-sized output *)
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let restores = 64
let classifies = 64

(* Golden run, fork capture, restore and classify on one program. *)
let deep (ps : Work.probe_subject) =
  let p = ps.ps_protected in
  let subj = Softft.subject p ~role:Workloads.Workload.Test in
  let compiled = Interp.Compiled.of_prog subj.prog in
  let state = subj.fresh_state () in
  let w0 = Gc.minor_words () in
  let r =
    Interp.Machine.run_compiled
      ~config:{ Interp.Machine.default_config with mode = Interp.Machine.Record }
      compiled ~entry:subj.entry ~args:state.args ~mem:state.mem
  in
  let alloc = (Gc.minor_words () -. w0) /. float_of_int (max 1 r.steps) in
  let output =
    match r.stop with
    | Interp.Machine.Finished ret -> state.read_output ret
    | _ -> failwith (subj.label ^ ": probe golden run did not finish")
  in
  let plan = Interp.Fork.plan ~stride:(max 1 (r.steps / 32)) in
  let cstate = subj.fresh_state () in
  let (_ : Interp.Machine.result) =
    Interp.Machine.run_compiled
      ~config:
        { Interp.Machine.default_config with
          mode = Interp.Machine.Record; checkpoint_interval = ps.ps_checkpoint }
      ~fork_capture:plan compiled ~entry:subj.entry ~args:cstate.args
      ~mem:cstate.mem
  in
  let snaps = Interp.Fork.finalize plan in
  let image_words, restore_us =
    if Array.length snaps = 0 then (0.0, 0.0)
    else begin
      let im = snaps.(Array.length snaps - 1).Interp.Fork.fk_mem in
      let dst = subj.fresh_state () in
      let (), dt =
        timed (fun () ->
            for _ = 1 to restores do
              Interp.Memory.restore_image dst.mem im
            done)
      in
      (float_of_int (Interp.Memory.image_words im),
       dt *. 1e6 /. float_of_int restores)
    end
  in
  let faulty = Array.copy output in
  if Array.length faulty > 0 then faulty.(0) <- faulty.(0) +. 1.0;
  let (), cdt =
    timed (fun () ->
        for _ = 1 to classifies do
          ignore
            (Faults.Classify.classify ~hw_window:Faults.Classify.default_hw_window
               ~result:r
               ~identical:(fun () -> Fidelity.Metric.identical ~reference:output faulty)
               ~acceptable:(fun () ->
                 Fidelity.Metric.acceptable subj.metric ~reference:output faulty)
             : Faults.Classify.outcome)
        done)
  in
  (alloc, float_of_int (Interp.Fork.words snaps), image_words, restore_us,
   cdt *. 1e6 /. float_of_int classifies)

let run (subjects : Work.probe_subject list) =
  let profiled (ps : Work.probe_subject) =
    match ps.ps_protected.technique with
    | Softft.Dup_valchk | Softft.Dup_valchk_cfc -> true
    | _ -> false
  in
  (* [Softft.protect] is value profiling followed by the transform
     pipeline; each is timed alone on a fresh build of the program. *)
  let split =
    List.map
      (fun (ps : Work.probe_subject) ->
        let w = ps.ps_protected.workload in
        let prog = w.build () in
        let profile, profile_s =
          if profiled ps then
            let vp, dt = timed (fun () -> Workloads.Workload.profile ~prog w) in
            (Some (fun uid -> Profiling.Value_profile.check_kind vp uid), dt)
          else (None, 0.0)
        in
        let (_ : Transform.Pipeline.stats), pipeline_s =
          timed (fun () ->
              Transform.Pipeline.protect ?profile prog ps.ps_protected.technique)
        in
        (profile_s, pipeline_s))
      subjects
  in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 split in
  let compile_s =
    List.fold_left
      (fun acc (ps : Work.probe_subject) ->
        acc +. snd (timed (fun () -> Interp.Compiled.of_prog ps.ps_protected.prog)))
      0.0 subjects
  in
  let deeps = List.map deep (List.filter (fun ps -> ps.Work.ps_deep) subjects) in
  let pick f = List.map f deeps in
  { profile_s = sum fst; pipeline_s = sum snd; compile_s;
    alloc_words_per_step = mean (pick (fun (a, _, _, _, _) -> a));
    snapshot_words = List.fold_left ( +. ) 0.0 (pick (fun (_, s, _, _, _) -> s));
    image_words = mean (pick (fun (_, _, i, _, _) -> i));
    restore_us = mean (pick (fun (_, _, _, r, _) -> r));
    classify_us = mean (pick (fun (_, _, _, _, c) -> c)) }
