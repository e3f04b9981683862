type t = {
  on_enqueue : Packet.t -> unit;
  on_dequeue : Packet.t -> unit;
  update : unit -> unit;
  interval : float;
  value : unit -> float;
}

let none =
  {
    on_enqueue = (fun _ -> ());
    on_dequeue = (fun _ -> ());
    update = (fun () -> ());
    interval = 1.;
    value = (fun () -> 0.);
  }

(* The xWI engine's float state. All-float, so stored flat: the
   per-packet [min_res] write and the per-update [price] write store in
   place, where a [float ref] would box a fresh float on every write. *)
type xwi_state = { mutable price : float; mutable min_res : float }

(* The NUMFabric switch, a faithful transcription of Fig. 3. *)
let xwi ?(eta = 5.) ?(beta = 0.5) ?(interval = 30e-6) ~capacity () =
  let st = { price = 0.; min_res = infinity } in
  let bytes_serviced = ref 0 in
  let on_enqueue p =
    let r = p.Packet.normalized_residual in
    if Packet.is_data p && Nf_util.Fcmp.is_finite r then
      st.min_res <- Float.min st.min_res r
  in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    p.Packet.path_price <- p.Packet.path_price +. st.price;
    p.Packet.path_len <- p.Packet.path_len + 1
  in
  let update () =
    let u =
      Nf_util.Fcmp.clamp ~lo:0. ~hi:1.
        (float_of_int !bytes_serviced *. 8. /. (interval *. capacity))
    in
    let residual = if Float.is_finite st.min_res then st.min_res else 0. in
    let price = st.price in
    let new_price =
      Float.max 0. (price +. residual -. (eta *. (1. -. u) *. price))
    in
    st.price <- (beta *. price) +. ((1. -. beta) *. new_price);
    bytes_serviced := 0;
    st.min_res <- infinity
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> st.price) }

(* DGD per Eq. 14: p <- [p + a (y - C) + b q]+ . *)
let dgd ?(gain_util = 0.3) ?(gain_queue = 0.15) ?(interval = 16e-6) ~capacity
    ~queue_bytes ~price_scale () =
  let price = ref 0. in
  let bytes_serviced = ref 0 in
  let on_enqueue _ = () in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    p.Packet.path_price <- p.Packet.path_price +. !price;
    p.Packet.path_len <- p.Packet.path_len + 1
  in
  let update () =
    let y = float_of_int !bytes_serviced *. 8. /. interval in
    let q = float_of_int (queue_bytes ()) in
    let bdp_bytes = capacity *. interval /. 8. in
    let a = gain_util *. price_scale /. capacity in
    let b = gain_queue *. price_scale /. Float.max bdp_bytes 1. in
    price := Float.max 0. (!price +. (a *. (y -. capacity)) +. (b *. q));
    bytes_serviced := 0
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> !price) }

(* RCP* per Eq. 15; departures accumulate R^-alpha (Eq. 16's feedback). *)
let rcp ?(gain_spare = 0.4) ?(gain_queue = 0.2) ?(interval = 16e-6)
    ?(mean_rtt = 16e-6) ~alpha ~capacity ~queue_bytes ~initial_fair_rate () =
  let fair_rate = ref (Nf_util.Fcmp.clamp ~lo:(capacity *. 1e-6) ~hi:capacity initial_fair_rate) in
  let bytes_serviced = ref 0 in
  let on_enqueue _ = () in
  let on_dequeue p =
    bytes_serviced := !bytes_serviced + p.Packet.size;
    if Packet.is_data p then
      p.Packet.rcp_sum <- p.Packet.rcp_sum +. (!fair_rate ** -.alpha)
  in
  let update () =
    let y = float_of_int !bytes_serviced *. 8. /. interval in
    let q_rate = float_of_int (queue_bytes ()) *. 8. /. mean_rtt in
    let change =
      interval /. mean_rtt
      *. ((gain_spare *. (capacity -. y)) -. (gain_queue *. q_rate))
      /. capacity
    in
    (* Asymmetric damping: R may halve per update under overload but grow
       by at most 10% per update — an idle link that inflated its rate
       instantly would invite a line-rate blast from every sender the
       moment flows return, then crash to the floor and limit-cycle. *)
    let factor = Nf_util.Fcmp.clamp ~lo:0.5 ~hi:1.1 (1. +. change) in
    (* Idle links advertise above capacity so their R^-alpha term fades
       from Eq. 16 at the fixed point. *)
    fair_rate :=
      Nf_util.Fcmp.clamp ~lo:(capacity *. 1e-4) ~hi:(capacity *. 100.)
        (!fair_rate *. factor);
    bytes_serviced := 0
  in
  { on_enqueue; on_dequeue; update; interval; value = (fun () -> !fair_rate) }
