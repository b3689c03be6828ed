(** In-memory span recorder for the traced benchmark run.

    The benchmark wraps every call it makes into a layer's public function
    in a span (name, start, end, parent, run id) and imports the spans the
    program's own flight recorder ({!Obs.Trace}) collected inside campaign
    calls as children.  Spans stay in memory until the run ends; per-layer
    times are self times: a span's duration minus the part of its interval
    that its children cover. *)

type span = {
  id : int;
  parent : int;   (** -1 for a run's root span *)
  run : int;      (** one id per workload run *)
  name : string;  (** the layer, e.g. ["transform.protect"] *)
  pool : bool;    (** a {!Faults.Pool} worker or chunk span: runs beside
                      the main domain's timeline, not on it *)
  track : int;    (** 0 = main domain; pool worker index otherwise *)
  t0 : float;     (** seconds, {!Unix.gettimeofday} clock *)
  t1 : float;
}

type t = {
  mutable next : int;
  mutable stack : (int * string) list;  (** open spans, innermost first *)
  mutable run : int;
  mutable spans : span list;  (** closed spans, newest first *)
  counts : (int * string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;  (** pooled over runs *)
  mutable on_boundary : unit -> unit;
      (** called on the main domain as every non-root span opens and
          closes *)
}

let create () =
  { next = 0; stack = []; run = 0; spans = []; counts = Hashtbl.create 64;
    samples = Hashtbl.create 8; on_boundary = ignore }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let current t = match t.stack with (p, _) :: _ -> p | [] -> -1

(** Whether a span named [name] is open. *)
let inside t name = List.exists (fun (_, n) -> n = name) t.stack

let add t s = t.spans <- s :: t.spans

(** [with_span tr name f] runs [f] inside a span when a recorder is
    attached and is a bare call of [f] otherwise, so the timed runs carry
    no tracing at all.  The span is recorded even when [f] raises. *)
let with_span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    (* Boundary work of a child span lands in its parent's self time;
       none is done around a root, so a run's wall time holds no more
       than its root span. *)
    let boundary () = if t.stack <> [] then t.on_boundary () in
    boundary ();
    let id = fresh_id t in
    let parent = current t in
    t.stack <- (id, name) :: t.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        add t { id; parent; run = t.run; name; pool = false; track = 0; t0; t1 };
        boundary ())

(** Start a new workload run: the following root span and counts carry a
    fresh run id. *)
let new_run t = t.run <- t.run + 1

(** Add [v] to counter [name] of the current run. *)
let count tr name v =
  match tr with
  | None -> ()
  | Some t ->
    let k = (t.run, name) in
    let old = Option.value ~default:0.0 (Hashtbl.find_opt t.counts k) in
    Hashtbl.replace t.counts k (old +. v)

(** Record samples [vs] of distribution [name] (pooled over runs). *)
let samples tr name vs =
  match tr with
  | None -> ()
  | Some t ->
    let old = Option.value ~default:[] (Hashtbl.find_opt t.samples name) in
    Hashtbl.replace t.samples name (List.rev_append vs old)

let counter t ~run name =
  Option.value ~default:0.0 (Hashtbl.find_opt t.counts (run, name))

(** Layer names given to the campaign flight recorder's spans. *)
let recorder_layer (d : Obs.Trace.dur) =
  match d.du_cat, d.du_name with
  | "campaign", "golden_run" -> "interp.golden"
  | "campaign", "fork_capture" -> "interp.fork_capture"
  | "campaign", "mass_replay" -> "faults.mass_replay"
  | "campaign", "trials" -> "faults.trial_phase"
  | "journal", "write" -> "faults.journal.write"
  | "pool", n -> "faults.pool." ^ n
  | c, n -> c ^ "." ^ n

(** Import everything [rc] recorded as children of the innermost open
    span.  [epoch] is [rc]'s time zero on the {!Unix.gettimeofday} clock.
    Pool worker spans become children of the trial-phase span that holds
    them, chunk spans children of their worker span. *)
let import t ~epoch (rc : Obs.Trace.recorder) =
  let parent = current t in
  let main = ref [] and pool = ref [] in
  List.iter
    (fun (d : Obs.Trace.dur) ->
      let t0 = epoch +. (d.du_start_us /. 1e6) in
      let s =
        { id = fresh_id t; parent; run = t.run; name = recorder_layer d;
          pool = d.du_cat = "pool"; track = d.du_track; t0;
          t1 = t0 +. (d.du_dur_us /. 1e6) }
      in
      if s.pool then pool := (d.du_name, s) :: !pool else main := s :: !main)
    (Obs.Trace.durs rc);
  let within outer s = s.t0 >= outer.t0 -. 1e-4 && s.t1 <= outer.t1 +. 1e-4 in
  let enclosing candidates s =
    match List.find_opt (fun o -> within o s) candidates with
    | Some o -> o.id
    | None -> parent
  in
  let phases = List.filter (fun s -> s.name = "faults.trial_phase") !main in
  let workers =
    List.filter_map
      (fun (n, s) ->
        if n = "worker" then Some { s with parent = enclosing phases s }
        else None)
      !pool
  in
  let chunks =
    List.filter_map
      (fun (n, s) ->
        if n = "worker" then None
        else
          let mine = List.filter (fun w -> w.track = s.track) workers in
          Some { s with parent = enclosing mine s })
      !pool
  in
  List.iter (add t) (!main @ workers @ chunks)

(** Spans of one run. *)
let of_run t run = List.filter (fun (s : span) -> s.run = run) t.spans

(** Total length of the union of intervals [ivs]. *)
let union_length ivs =
  let sorted = List.sort compare ivs in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span in [spans]: its duration minus the union of
    its children's intervals, clipped to the span.  Returns [(span,
    self)] pairs. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        List.filter_map
          (fun c ->
            let a = Float.max c.t0 s.t0 and b = Float.min c.t1 s.t1 in
            if b > a then Some (a, b) else None)
          (Hashtbl.find_all children s.id)
      in
      (s, Float.max 0.0 (s.t1 -. s.t0 -. union_length ivs)))
    spans

(** Self time per layer name over [spans], summed. *)
let layer_self spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let old = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (old +. self))
    (self_times spans);
  tbl

(** The wall-time breakdown of one run on the main domain's timeline:
    pool spans excluded (they sit inside the trial phase, on every
    worker).  Every second of [wall] lands in exactly one layer, the
    root's self time being the benchmark's own uncovered time. *)
let main_timeline spans = List.filter (fun s -> not s.pool) spans

type reconciliation = {
  rc_wall : float;         (** run wall time measured outside the spans *)
  rc_layers : float;       (** Σ main-timeline self times, root excluded *)
  rc_uncovered : float;    (** the root span's self time *)
  rc_error : float;        (** |rc_layers + rc_uncovered - rc_wall| *)
  rc_tolerance : float;
  rc_ok : bool;
}

(** Stated tolerance: 1% of the run's wall time plus 2 ms of clock
    granularity and span bookkeeping. *)
let tolerance wall = (0.01 *. wall) +. 0.002

(** Check that the top-level layer self times plus the uncovered time add
    up to [wall].  Overlapping sibling spans, or children that stick out
    of their parent, make the sum exceed [wall]; a missing root makes it
    fall short. *)
let reconcile ~wall spans =
  let main = main_timeline spans in
  let selfs = self_times main in
  let uncovered, layers =
    List.fold_left
      (fun (u, l) (s, self) -> if s.parent < 0 then (u +. self, l) else (u, l +. self))
      (0.0, 0.0) selfs
  in
  let roots = List.filter (fun s -> s.parent < 0) main in
  let err = Float.abs (layers +. uncovered -. wall) in
  let tol = tolerance wall in
  { rc_wall = wall; rc_layers = layers; rc_uncovered = uncovered;
    rc_error = err; rc_tolerance = tol;
    rc_ok = List.length roots = 1 && err <= tol }

(** Chrome trace-event JSON of every recorded span (load in Perfetto):
    one complete event per span, the run id as process id, the track as
    thread id, and span/parent ids as arguments. *)
let to_chrome t =
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans
  in
  let ev s =
    Obs.Json.Obj
      [ ("name", Obs.Json.Str s.name);
        ("cat", Obs.Json.Str (if s.pool then "pool" else "layer"));
        ("ph", Obs.Json.Str "X");
        ("pid", Obs.Json.Int s.run);
        ("tid", Obs.Json.Int (if s.pool then 1 + s.track else 0));
        ("ts", Obs.Json.Float ((s.t0 -. origin) *. 1e6));
        ("dur", Obs.Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("args",
         Obs.Json.Obj
           [ ("id", Obs.Json.Int s.id); ("parent", Obs.Json.Int s.parent) ]) ]
  in
  Obs.Json.Obj
    [ ("traceEvents", Obs.Json.List (List.rev_map ev t.spans)) ]
