type gain = { g : float; mutable gv : float option }

let gain ~g =
  if not (g > 0. && g <= 1.) then invalid_arg "Ewma.gain: g must be in (0, 1]";
  { g; gv = None }

let gain_update f sample =
  match f.gv with
  | None -> f.gv <- Some sample
  | Some v -> f.gv <- Some (((1. -. f.g) *. v) +. (f.g *. sample))

let gain_value f = f.gv

let gain_value_exn f =
  match f.gv with
  | Some v -> v
  | None -> invalid_arg "Ewma.gain_value_exn: no samples yet"

(* All-float, so stored flat: updates write doubles in place instead of
   boxing a [Some v] per sample. [tv] is NaN until the first sample. *)
type timed = { tau : float; mutable tv : float; mutable last : float }

let timed ~tau =
  if not (tau > 0.) then invalid_arg "Ewma.timed: tau must be positive";
  { tau; tv = Float.nan; last = neg_infinity }

let[@inline] timed_update f ~now sample =
  if Float.is_nan sample then ()
  else if Float.is_nan f.tv then begin
    f.tv <- sample;
    f.last <- now
  end
  else begin
    let v = f.tv in
    let dt = Float.max 0. (now -. f.last) in
    let w = 1. -. exp (-.dt /. f.tau) in
    f.tv <- ((1. -. w) *. v) +. (w *. sample);
    f.last <- Float.max now f.last
  end

let timed_value f = if Float.is_nan f.tv then None else Some f.tv

let[@inline] timed_value_nan f = f.tv

let timed_value_exn f =
  if Float.is_nan f.tv then invalid_arg "Ewma.timed_value_exn: no samples yet"
  else f.tv

let timed_reset f =
  f.tv <- Float.nan;
  f.last <- neg_infinity

let rise_time_90 ~tau = log 10. *. tau
