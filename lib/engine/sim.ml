module Metrics = Nf_util.Metrics
module Profile = Nf_util.Profile
module Gcstats = Nf_util.Gcstats
module Fheap = Nf_util.Fheap

type cat = Profile.cat

(* An all-float record is stored flat: writing [now] stores the double
   in place, where a [mutable clock : float] field of [t] would box a
   fresh float on every event. *)
type clock = { mutable now : float }

type t = {
  queue : (unit -> unit) Fheap.t;
  clock : clock;
  mutable stopped : bool;
  mutable processed : int;
  mutable scheduled : int;
}

let m_events =
  Metrics.counter Metrics.global
    ~help:"Events dispatched by the discrete-event loop"
    "nf_engine_events_total"

let m_heap_depth =
  Metrics.gauge Metrics.global
    ~help:"High-water mark of the event heap (sampled)"
    "nf_engine_heap_depth_max"

let cat = Profile.intern

let default_cat = cat "event"

let noop () = ()

let create () =
  {
    queue = Fheap.create ~capacity:64 ~dummy:noop ();
    clock = { now = 0. };
    stopped = false;
    processed = 0;
    scheduled = 0;
  }

let[@inline] now t = t.clock.now

(* The heap-depth gauge is a diagnostic high-water mark; updating it per
   scheduled event costs an int->float conversion plus a compare even when
   nobody reads metrics, so it is sampled every 2^8 schedules instead. *)
let depth_sample_mask = 0xFF

(* Cold paths of the [@inline] schedulers, kept out of line so the
   inlined bodies stay small. Both guards are written [not (x >= y)] so a
   NaN time or delay is rejected too: Fheap keys must never be NaN. *)
let[@inline never] bad_time t at =
  if Float.is_nan at then
    invalid_arg (Printf.sprintf "Sim.schedule: NaN event time (now=%g)" t.clock.now)
  else
    invalid_arg
      (Printf.sprintf "Sim.schedule: event in the past (at=%g, now=%g)" at
         t.clock.now)

let[@inline never] bad_delay delay =
  if Float.is_nan delay then invalid_arg "Sim.schedule_after: NaN delay"
  else invalid_arg "Sim.schedule_after: negative delay"

let[@inline never] sample_depth t =
  Metrics.max_gauge m_heap_depth (float_of_int (Fheap.length t.queue))

(* [@inline]: callers compute [at]/[delay] as raw floats; an out-of-line
   call would box them at the library boundary on every event. *)
let[@nf.hot] [@inline] schedule_cat t ~cat ~at action =
  if not (at >= t.clock.now) then bad_time t at;
  Fheap.push t.queue ~key:at ~aux:cat action;
  let s = t.scheduled + 1 in
  t.scheduled <- s;
  if s land depth_sample_mask = 0 then sample_depth t

let[@nf.hot] [@inline] schedule_after_cat t ~cat ~delay action =
  if not (delay >= 0.) then bad_delay delay;
  schedule_cat t ~cat ~at:(t.clock.now +. delay) action

let periodic_cat t ~cat ?start ~interval action =
  if not (interval > 0.) then invalid_arg "Sim.periodic: interval must be positive";
  let first = match start with Some s -> s | None -> t.clock.now +. interval in
  let rec fire () =
    action ();
    schedule_after_cat t ~cat ~delay:interval fire
  in
  schedule_cat t ~cat ~at:first fire

let cat_of_opt = function None -> default_cat | Some s -> Profile.intern s

let schedule t ?cat ~at action = schedule_cat t ~cat:(cat_of_opt cat) ~at action

let schedule_after t ?cat ~delay action =
  schedule_after_cat t ~cat:(cat_of_opt cat) ~delay action

let periodic t ?cat ?start ~interval action =
  periodic_cat t ~cat:(cat_of_opt cat) ?start ~interval action

(* The dispatch loop proper, split out of [run] so it can carry [@nf.hot]
   (the Fun.protect closure in [run] is per-run, not per-event, and stays
   outside the annotation). *)
let[@nf.hot] run_loop t horizon profiling gcing dispatched =
  let q = t.queue in
  let continue = ref true in
  while !continue && not t.stopped do
    if Fheap.is_empty q then begin
      if Float.is_finite horizon then t.clock.now <- Float.max t.clock.now horizon;
      continue := false
    end
    else begin
      let time = Fheap.top_key q in
      if time > horizon then begin
        t.clock.now <- horizon;
        continue := false
      end
      else begin
        let action = Fheap.top q in
        let c = Fheap.top_aux q in
        Fheap.drop q;
        t.clock.now <- time;
        incr dispatched;
        if profiling then
          if gcing then begin
            let b0 = Gcstats.bytes () in
            let t0 = Profile.now () in
            action ();
            Profile.record_cat c (Profile.now () -. t0);
            Gcstats.record c (Gcstats.bytes () -. b0)
          end
          else begin
            let t0 = Profile.now () in
            action ();
            Profile.record_cat c (Profile.now () -. t0)
          end
        else action ()
      end
    end
  done

let run ?until t =
  t.stopped <- false;
  let horizon = match until with Some u -> u | None -> infinity in
  (* Hoisted out of the dispatch loop: toggling profiling from inside a
     handler takes effect on the next [run]. Event/processed counters are
     batched and settled once per run (also on an escaping exception). *)
  let profiling = Profile.enabled () in
  let gcing = profiling && Gcstats.enabled () in
  let dispatched = ref 0 in
  Fun.protect ~finally:(fun () ->
      t.processed <- t.processed + !dispatched;
      Metrics.add m_events !dispatched)
  @@ fun () -> run_loop t horizon profiling gcing dispatched

let stop t = t.stopped <- true

let events_processed t = t.processed

let pending t = Fheap.length t.queue
