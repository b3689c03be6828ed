(** Tests for the cleanup passes (constant folding, DCE), the liveness
    analysis and the signature-based control-flow checking pass. *)

open Ir

let run_main ?config prog args =
  let mem = Interp.Memory.create () in
  Interp.Machine.run ?config prog ~entry:"main" ~args ~mem

let finished_value (r : Interp.Machine.result) =
  match r.stop with
  | Interp.Machine.Finished (Some v) -> v
  | stop -> Alcotest.failf "did not finish: %a" Interp.Machine.pp_stop stop

(* ----- constant folding ----- *)

let test_fold_constants () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let x = Builder.add b (Builder.imm 2) (Builder.imm 3) in
  let y = Builder.mul b x (Builder.imm 4) in
  Builder.ret b y;
  Builder.finish b;
  let stats = Transform.Constant_fold.run prog in
  Verifier.verify prog;
  Alcotest.(check bool) "folded something" true (stats.folded >= 2);
  Alcotest.(check int64) "result preserved" 20L
    (Value.to_int64 (finished_value (run_main prog [])))

let test_fold_identities () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  let a = Builder.add b x (Builder.imm 0) in
  let m = Builder.mul b a (Builder.imm 1) in
  let o = Builder.or_ b m (Builder.imm 0) in
  Builder.ret b o;
  Builder.finish b;
  let stats = Transform.Constant_fold.run prog in
  Verifier.verify prog;
  Alcotest.(check bool) "identities found" true (stats.identities >= 2);
  Alcotest.(check int64) "identity result" 9L
    (Value.to_int64 (finished_value (run_main prog [ Value.of_int 9 ])))

let test_fold_constant_branch () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let cond = Builder.gt b (Builder.imm 5) (Builder.imm 3) in
  let vals =
    Builder.if_ b cond
      ~then_:(fun () -> [ Builder.imm 111 ])
      ~else_:(fun () -> [ Builder.imm 222 ])
  in
  (match vals with [ v ] -> Builder.ret b (Reg v) | _ -> assert false);
  Builder.finish b;
  let stats = Transform.Constant_fold.run prog in
  Verifier.verify prog;
  Alcotest.(check int) "branch resolved" 1 stats.branches_resolved;
  Alcotest.(check int64) "took then" 111L
    (Value.to_int64 (finished_value (run_main prog [])))

let test_fold_keeps_division_trap () =
  (* 1/0 must NOT fold: the trap is a runtime event. *)
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Builder.ret b (Builder.sdiv b (Builder.imm 1) (Builder.imm 0));
  Builder.finish b;
  let (_ : Transform.Constant_fold.stats) = Transform.Constant_fold.run prog in
  match (run_main prog []).stop with
  | Interp.Machine.Trapped Interp.Machine.Division_by_zero -> ()
  | stop -> Alcotest.failf "expected trap, got %a" Interp.Machine.pp_stop stop

(* ----- dead-code elimination ----- *)

let test_dce_removes_dead () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  (* Dead chain. *)
  let d1 = Builder.mul b x x in
  let (_ : Instr.operand) = Builder.add b d1 (Builder.imm 1) in
  (* Live result. *)
  Builder.ret b (Builder.add b x (Builder.imm 5));
  Builder.finish b;
  let before = Prog.instr_count prog in
  let stats = Transform.Dce.run prog in
  Verifier.verify prog;
  Alcotest.(check int) "removed the dead chain" 2 stats.removed_instrs;
  Alcotest.(check int) "count dropped" (before - 2) (Prog.instr_count prog);
  Alcotest.(check int64) "result preserved" 12L
    (Value.to_int64 (finished_value (run_main prog [ Value.of_int 7 ])))

let test_dce_keeps_side_effects () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let base = Builder.alloc b (Builder.imm 1) in
  Builder.store b base (Builder.imm 9);   (* store result unused but live *)
  Builder.ret b (Builder.load b base);
  Builder.finish b;
  let stats = Transform.Dce.run prog in
  Alcotest.(check int) "nothing removed" 0 stats.removed_instrs;
  Alcotest.(check int64) "store survived" 9L
    (Value.to_int64 (finished_value (run_main prog [])))

let test_optimize_pipeline_on_workloads () =
  (* Fold + DCE must preserve every workload's fault-free output. *)
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let reference = Workloads.Workload.golden w ~role:Workloads.Workload.Test in
      let prog = w.build () in
      let (_ : Transform.Constant_fold.stats), (_ : Transform.Cse.stats),
          (_ : Transform.Dce.stats) =
        Transform.Dce.optimize prog
      in
      let optimized =
        Workloads.Workload.golden w ~prog ~role:Workloads.Workload.Test
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s output preserved" w.name)
        true
        (Fidelity.Metric.identical ~reference:reference.output optimized.output))
    Workloads.Registry.all

(* ----- common-subexpression elimination ----- *)

let test_cse_merges_duplicates () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:2 in
  let x = Builder.param b 0 and y = Builder.param b 1 in
  let a1 = Builder.add b x y in
  let a2 = Builder.add b x y in       (* same expression *)
  Builder.ret b (Builder.mul b a1 a2);
  Builder.finish b;
  let stats = Transform.Cse.run prog in
  Verifier.verify prog;
  Alcotest.(check int) "one merge" 1 stats.merged;
  Alcotest.(check int64) "result preserved" 49L
    (Value.to_int64
       (finished_value (run_main prog [ Value.of_int 3; Value.of_int 4 ])))

let test_cse_does_not_merge_loads () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let base = Builder.alloc b (Builder.imm 1) in
  Builder.store b base (Builder.imm 1);
  let l1 = Builder.load b base in
  Builder.store b base (Builder.imm 2);
  let l2 = Builder.load b base in
  Builder.ret b (Builder.add b l1 l2);
  Builder.finish b;
  let stats = Transform.Cse.run prog in
  Alcotest.(check int) "loads untouched" 0 stats.merged;
  Alcotest.(check int64) "sees both stores" 3L
    (Value.to_int64 (finished_value (run_main prog [])))

let test_cse_respects_dominance () =
  (* The same expression in two sibling branches must NOT merge: neither
     block dominates the other. *)
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  let c = Builder.gt b x (Builder.imm 0) in
  let vals =
    Builder.if_ b c
      ~then_:(fun () -> [ Builder.mul b x x ])
      ~else_:(fun () -> [ Builder.mul b x x ])
  in
  (match vals with [ v ] -> Builder.ret b (Reg v) | _ -> assert false);
  Builder.finish b;
  let stats = Transform.Cse.run prog in
  Verifier.verify prog;
  Alcotest.(check int) "no cross-branch merge" 0 stats.merged;
  Alcotest.(check int64) "behaviour" 25L
    (Value.to_int64 (finished_value (run_main prog [ Value.of_int 5 ])))

let test_cse_then_dce_shrinks () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  let a1 = Builder.mul b x (Builder.imm 3) in
  let a2 = Builder.mul b x (Builder.imm 3) in
  Builder.ret b (Builder.add b a1 a2);
  Builder.finish b;
  let before = Prog.instr_count prog in
  let (_ : Transform.Cse.stats) = Transform.Cse.run prog in
  let (_ : Transform.Dce.stats) = Transform.Dce.run prog in
  Verifier.verify prog;
  Alcotest.(check bool) "shrank" true (Prog.instr_count prog < before);
  Alcotest.(check int64) "behaviour" 12L
    (Value.to_int64 (finished_value (run_main prog [ Value.of_int 2 ])))

(* ----- loop-invariant code motion ----- *)

let test_licm_hoists_invariant () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:2 in
  let x = Builder.param b 0 in
  let n = Builder.param b 1 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:n
      ~init:(Builder.imm 0)
      ~body:(fun ~i acc ->
        (* x*3+7 is invariant; acc+i+it is not. *)
        let inv = Builder.add b (Builder.mul b x (Builder.imm 3)) (Builder.imm 7) in
        Builder.add b acc (Builder.add b i inv))
  in
  Builder.ret b s;
  Builder.finish b;
  let baseline =
    let mem = Interp.Memory.create () in
    Interp.Machine.run prog ~entry:"main"
      ~args:[ Value.of_int 5; Value.of_int 50 ] ~mem
  in
  let stats = Transform.Licm.run prog in
  Alcotest.(check int) "hoisted the invariant chain" 2 stats.hoisted;
  let after =
    let mem = Interp.Memory.create () in
    Interp.Machine.run prog ~entry:"main"
      ~args:[ Value.of_int 5; Value.of_int 50 ] ~mem
  in
  (match baseline.stop, after.stop with
   | Interp.Machine.Finished (Some a), Interp.Machine.Finished (Some b2) ->
     Alcotest.(check int64) "same result" (Value.to_int64 a) (Value.to_int64 b2)
   | _ -> Alcotest.fail "runs did not finish");
  Alcotest.(check bool)
    (Printf.sprintf "fewer dynamic steps (%d -> %d)" baseline.steps after.steps)
    true (after.steps < baseline.steps)

let test_licm_leaves_variant_code () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let n = Builder.param b 0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:n
      ~init:(Builder.imm 0)
      ~body:(fun ~i acc -> Builder.add b acc (Builder.mul b i i))
  in
  Builder.ret b s;
  Builder.finish b;
  let stats = Transform.Licm.run prog in
  Alcotest.(check int) "nothing hoisted" 0 stats.hoisted

let test_licm_never_hoists_loads_or_div () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:2 in
  let base = Builder.param b 0 in
  let n = Builder.param b 1 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:n
      ~init:(Builder.imm 0)
      ~body:(fun ~i:_ acc ->
        (* Invariant operands, but a load and a division: must stay put. *)
        let v = Builder.load b base in
        let d = Builder.sdiv b (Builder.imm 100) v in
        Builder.add b acc d)
  in
  Builder.ret b s;
  Builder.finish b;
  let stats = Transform.Licm.run prog in
  Alcotest.(check int) "loads and divisions stay" 0 stats.hoisted

let test_licm_preserves_workloads () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let reference = Workloads.Workload.golden w ~role:Workloads.Workload.Test in
      let prog = w.build () in
      let (_ : Transform.Licm.stats) = Transform.Licm.run prog in
      let optimized =
        Workloads.Workload.golden w ~prog ~role:Workloads.Workload.Test
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s output preserved" name)
        true
        (Fidelity.Metric.identical ~reference:reference.output optimized.output))
    [ "jpegenc"; "g721dec"; "kmeans"; "tex_synth" ]

(* ----- tracer ----- *)

let test_trace_captures_values () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let x = Builder.add b (Builder.imm 2) (Builder.imm 3) in
  let y = Builder.mul b x (Builder.imm 10) in
  Builder.ret b y;
  Builder.finish b;
  let mem = Interp.Memory.create () in
  let events, result =
    Interp.Value_trace.first_values ~limit:10 prog ~entry:"main" ~args:[] ~mem
  in
  (match result.stop with
   | Interp.Machine.Finished _ -> ()
   | _ -> Alcotest.fail "run failed");
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
   | [ e1; e2 ] ->
     Alcotest.(check int64) "first value" 5L (Value.to_int64 e1.value);
     Alcotest.(check int64) "second value" 50L (Value.to_int64 e2.value)
   | _ -> Alcotest.fail "unexpected events");
  let rendered = Interp.Value_trace.render prog events in
  Alcotest.(check int) "rendered lines" 2 (List.length rendered)

let test_trace_respects_limit () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:(Builder.imm 1000)
      ~init:(Builder.imm 0)
      ~body:(fun ~i acc -> Builder.add b acc i)
  in
  Builder.ret b s;
  Builder.finish b;
  let mem = Interp.Memory.create () in
  let events, (_ : Interp.Machine.result) =
    Interp.Value_trace.first_values ~limit:25 prog ~entry:"main" ~args:[] ~mem
  in
  Alcotest.(check int) "limited" 25 (List.length events)

(* ----- liveness ----- *)

let test_liveness_loop () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let n = Builder.param b 0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:n
      ~init:(Builder.imm 0)
      ~body:(fun ~i acc -> Builder.add b acc i)
  in
  Builder.ret b s;
  Builder.finish b;
  let f = Prog.find_func prog "main" in
  let cfg = Analysis.Cfg.of_func f in
  let live = Analysis.Liveness.compute cfg in
  (* The loop bound (parameter) is live into the loop header. *)
  let header =
    List.find
      (fun (bl : Block.t) -> bl.phis <> [])
      f.blocks
  in
  let n_reg = List.hd f.params in
  Alcotest.(check bool) "bound live at header" true
    (List.mem n_reg (Analysis.Liveness.live_in live header.label));
  Alcotest.(check bool) "pressure positive" true
    (Analysis.Liveness.max_pressure live > 0)

let test_liveness_dead_value () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  let (_dead : Instr.operand) = Builder.mul b x x in
  Builder.ret b x;
  Builder.finish b;
  let f = Prog.find_func prog "main" in
  let live = Analysis.Liveness.compute (Analysis.Cfg.of_func f) in
  (* The dead product is not live anywhere (single block: live_in = uses). *)
  let entry_live = Analysis.Liveness.live_in live f.entry in
  Alcotest.(check (list int)) "only the param is live-in" f.params entry_live

(* ----- control-flow checking ----- *)

let test_cfc_preserves_semantics () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let reference = Workloads.Workload.golden w ~role:Workloads.Workload.Test in
      let p = Softft.protect w Softft.Cfc_only in
      let protected_run = Softft.golden p ~role:Workloads.Workload.Test in
      Alcotest.(check bool)
        (Printf.sprintf "%s output preserved under CFC" name)
        true
        (Fidelity.Metric.identical ~reference:reference.output
           protected_run.output))
    [ "g721enc"; "tiff2bw"; "kmeans" ]

let test_cfc_inserts_checks () =
  let p = Softft.protect (Workloads.Registry.find "jpegdec") Softft.Cfc_only in
  Alcotest.(check bool) "signature checks inserted" true
    (p.static_stats.value_checks > 5)

let test_cfc_detects_branch_faults () =
  let w = Workloads.Registry.find "g721enc" in
  let detections technique =
    let p = Softft.protect w technique in
    let subject = Softft.subject p ~role:Workloads.Workload.Test in
    let summary, (_ : Faults.Campaign.trial list) =
      Faults.Campaign.run ~seed:5 ~fault_kind:Interp.Machine.Branch_target
        subject ~trials:80
    in
    Faults.Campaign.count summary Faults.Classify.Sw_detect
  in
  let without = detections Softft.Dup_valchk in
  let with_cfc = detections Softft.Dup_valchk_cfc in
  Alcotest.(check bool)
    (Printf.sprintf "CFC detects branch faults (%d -> %d)" without with_cfc)
    true
    (with_cfc > without)

let test_branch_fault_changes_flow () =
  (* A branch-target fault on an unprotected program must produce at least
     some non-masked outcome over many trials. *)
  let w = Workloads.Registry.find "g721enc" in
  let p = Softft.protect w Softft.Original in
  let subject = Softft.subject p ~role:Workloads.Workload.Test in
  let summary, (_ : Faults.Campaign.trial list) =
    Faults.Campaign.run ~seed:6 ~fault_kind:Interp.Machine.Branch_target
      subject ~trials:80
  in
  Alcotest.(check bool) "not everything masked" true
    (Faults.Campaign.count summary Faults.Classify.Masked < 80)

let tests =
  [ Alcotest.test_case "fold: constants" `Quick test_fold_constants;
    Alcotest.test_case "fold: identities" `Quick test_fold_identities;
    Alcotest.test_case "fold: constant branch" `Quick test_fold_constant_branch;
    Alcotest.test_case "fold: keeps div trap" `Quick test_fold_keeps_division_trap;
    Alcotest.test_case "dce: removes dead" `Quick test_dce_removes_dead;
    Alcotest.test_case "dce: keeps side effects" `Quick test_dce_keeps_side_effects;
    Alcotest.test_case "optimize: workloads preserved" `Slow
      test_optimize_pipeline_on_workloads;
    Alcotest.test_case "cse: merges duplicates" `Quick test_cse_merges_duplicates;
    Alcotest.test_case "cse: loads untouched" `Quick test_cse_does_not_merge_loads;
    Alcotest.test_case "cse: dominance scoped" `Quick test_cse_respects_dominance;
    Alcotest.test_case "cse+dce: shrinks" `Quick test_cse_then_dce_shrinks;
    Alcotest.test_case "licm: hoists invariants" `Quick test_licm_hoists_invariant;
    Alcotest.test_case "licm: leaves variant code" `Quick
      test_licm_leaves_variant_code;
    Alcotest.test_case "licm: loads and div stay" `Quick
      test_licm_never_hoists_loads_or_div;
    Alcotest.test_case "licm: workloads preserved" `Slow
      test_licm_preserves_workloads;
    Alcotest.test_case "trace: captures values" `Quick test_trace_captures_values;
    Alcotest.test_case "trace: respects limit" `Quick test_trace_respects_limit;
    Alcotest.test_case "liveness: loop bound" `Quick test_liveness_loop;
    Alcotest.test_case "liveness: dead value" `Quick test_liveness_dead_value;
    Alcotest.test_case "cfc: preserves semantics" `Quick test_cfc_preserves_semantics;
    Alcotest.test_case "cfc: inserts checks" `Quick test_cfc_inserts_checks;
    Alcotest.test_case "cfc: detects branch faults" `Quick
      test_cfc_detects_branch_faults;
    Alcotest.test_case "branch fault: perturbs flow" `Quick
      test_branch_fault_changes_flow;
  ]
