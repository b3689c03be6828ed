(** Per-domain GC pause time, read from the compiler's bundled
    [Runtime_events] ring of this very process.

    Only the traced run starts a consumer.  It accumulates, per ring
    (= per live domain), the time spent inside top-level collection
    phases.  The ring is fixed-size, so it must be drained before it
    wraps.  The traced run drains it on the main domain only, and never
    while a campaign's worker domains may be starting or stopping: at
    every span boundary, and from a GC alarm (end of each major cycle)
    outside campaign calls, which covers long single-domain calls such as
    the optimizer's search.  (Reading the ring from a poller thread while
    campaigns spawned and joined domains crashed the OCaml 5.1 runtime
    intermittently.)  A ring that wrapped anyway is reported as lost
    events. *)

type t = {
  pause_ns : (int, float) Hashtbl.t;   (** ring id -> ns inside a GC phase *)
  depth : (int, int * int64) Hashtbl.t;  (** ring id -> nesting, start *)
  mutable lost : int;
  mutable polling : bool;   (** guards against re-entry from a GC alarm *)
  cursor : Runtime_events.cursor;
}

let gc_phase = function
  | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE
  | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR
  | EV_EXPLICIT_GC_COMPACT | EV_EXPLICIT_GC_MAJOR_SLICE -> true
  | _ -> false

let callbacks t =
  let runtime_begin ring ts phase =
    if gc_phase phase then
      match Hashtbl.find_opt t.depth ring with
      | Some (d, s) when d > 0 -> Hashtbl.replace t.depth ring (d + 1, s)
      | _ ->
        Hashtbl.replace t.depth ring
          (1, Runtime_events.Timestamp.to_int64 ts)
  in
  let runtime_end ring ts phase =
    if gc_phase phase then
      match Hashtbl.find_opt t.depth ring with
      | Some (1, s) ->
        Hashtbl.replace t.depth ring (0, 0L);
        let d =
          Int64.to_float
            (Int64.sub (Runtime_events.Timestamp.to_int64 ts) s)
        in
        let old = Option.value ~default:0.0 (Hashtbl.find_opt t.pause_ns ring) in
        Hashtbl.replace t.pause_ns ring (old +. Float.max 0.0 d)
      | Some (d, s) when d > 1 -> Hashtbl.replace t.depth ring (d - 1, s)
      | _ -> ()
  in
  let lost_events _ n = t.lost <- t.lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let poll t =
  if not t.polling then begin
    t.polling <- true;
    Fun.protect ~finally:(fun () -> t.polling <- false) (fun () ->
        ignore (Runtime_events.read_poll t.cursor (callbacks t) None : int))
  end

(** Start the runtime's event ring, paused, and open a cursor on it. *)
let create () =
  Runtime_events.start ();
  Runtime_events.pause ();
  { pause_ns = Hashtbl.create 8; depth = Hashtbl.create 8; lost = 0;
    polling = false; cursor = Runtime_events.create_cursor None }

(** Resume collection with the totals zeroed: events from before (and
    losses reported for them) are drained and dropped. *)
let resume t =
  Runtime_events.resume ();
  poll t;
  Hashtbl.reset t.pause_ns;
  Hashtbl.reset t.depth;
  t.lost <- 0

(** Drain the ring and pause collection; returns the totals since
    {!resume}: (per-ring seconds, lost events). *)
let pause t =
  poll t;
  Runtime_events.pause ();
  let per_ring =
    Hashtbl.fold (fun ring ns acc -> (ring, ns /. 1e9) :: acc) t.pause_ns []
  in
  (List.sort compare per_ring, t.lost)

let close t = Runtime_events.free_cursor t.cursor
