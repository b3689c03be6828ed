(** Static predictor for protection plans (DESIGN.md §16).

    Prices a {!Plan.t} without transforming, interpreting or injecting:

    - {b SDC-prone fraction} — replays the duplication pass's chain walk
      symbolically over use-def edges to decide which original registers
      would end up covered by a latch dup-check or an expected-value
      check, then reuses the §11 AVF residency model (liveness live-in
      residency × profiled block weights) to weight what remains
      unprotected.  The denominator is fixed by the original program, so
      adding chains to a plan can only shrink the estimate.
    - {b runtime overhead} — prices the would-be-inserted shadow
      instructions, checks and checkpoints with an injected cost model
      against the same block weights, including a steady-state
      approximation of the interpreter's slack credit (a fraction of
      shadow slots ride for free in unused issue slots).

    Pricing is split in two.  {!prepare} runs every plan-independent
    analysis once per program and returns an immutable {!ctx};
    {!estimate} prices one plan through it, doing only the plan's own
    work.  A search prepares once and estimates many times.

    The cost model is a record of callbacks so this module stays below
    [lib/interp]; [Softft.Optimize.cost_model] wires in [Interp.Cost]. *)

type cost_model = {
  cm_instr : Ir.Instr.t -> int;        (** body instruction cycles *)
  cm_phi : int;
  cm_jmp : int;
  cm_br : int;
  cm_ret : int;
  cm_dup_check : int;
  cm_value_check : Ir.Instr.check_kind -> int;
  cm_shadow_slot : int;                (** cycles per unslacked shadow op *)
  cm_slack_gain : int;                 (** slack credits per source instr *)
  cm_slack_cost : int;                 (** credits one free shadow consumes *)
  cm_checkpoint_cycles : int;          (** lump cycles per checkpoint *)
}

type estimate = {
  pe_sdc_fraction : float;        (** predicted SDC-prone exposure share *)
  pe_exposure_total : float;
  pe_exposure_unprotected : float;
  pe_baseline_cycles : float;     (** priced original program *)
  pe_added_cycles : float;        (** priced protection additions *)
  pe_overhead : float;            (** added / baseline *)
  pe_cloned_instrs : int;
  pe_cloned_phis : int;
  pe_dup_checks : int;
  pe_value_checks : int;          (** mid-chain (Opt 2) + stand-alone *)
}

(** The plan-independent analyses of one function, computed once by
    {!prepare}: use-def, CFG and the natural loops' header phis. *)
type analyses = {
  an_func : Ir.Func.t;
  an_usedef : Usedef.t;
  an_cfg : Cfg.t;
  an_header_phis : (Loops.loop * Ir.Block.t * Ir.Instr.phi) list;
}

(** Everything about one program that does not depend on the plan.
    Immutable once built: pricing plans through one [ctx] in any order
    gives the same estimates as a fresh [ctx] per plan. *)
type ctx

(** [prepare ?exec_counts ?profile ~cost prog] analyses the {e original}
    [prog] once.  Per function: {!analyses}, the block weights, the
    uid-to-block map, the stand-alone check candidates and the frozen
    exposure rows ({!Liveness.exposure}); per program: the priced
    baseline, the dynamic step total and the exposure total.
    [exec_counts] supplies per-function block execution counts in layout
    order (same convention as [Coverage.analyze]; uniform weights
    otherwise).  [profile] decides which sites are check-amenable;
    without it, planned terminators and checks are inert, exactly as the
    transform would treat them. *)
val prepare :
  ?exec_counts:(string -> int array option) ->
  ?profile:(int -> Ir.Instr.check_kind option) ->
  cost:cost_model ->
  Ir.Prog.t ->
  ctx

(** The per-function analyses of the prepared program, in program order. *)
val analyses : ctx -> analyses list

(** [estimate ctx plan] prices [plan] against the program [ctx] was
    prepared from.  Only the plan's own work runs: the symbolic chain
    walk, the latch dup-checks, the stand-alone checks, the slack credit,
    the checkpoint lump and one pass over the exposure rows. *)
val estimate : ctx -> Plan.t -> estimate
