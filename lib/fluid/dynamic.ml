module Problem = Nf_num.Problem

type flow_spec = {
  key : int;
  arrival : float;
  size : float;
  path : int array;
  utility : Nf_num.Utility.t;
}

type completion = {
  c_key : int;
  c_arrival : float;
  c_size : float;
  c_finish : float;
}

let fct c = c.c_finish -. c.c_arrival

let achieved_rate c = c.c_size *. 8. /. Float.max (fct c) 1e-12

type result = {
  completions : completion list;
  unfinished : int;
  end_time : float;
}

type active = { spec : flow_spec; mutable remaining : float }

let sort_flows flows =
  List.sort
    (fun a b ->
      match Float.compare a.arrival b.arrival with
      | 0 -> Int.compare a.key b.key
      | c -> c)
    flows

let build_problem ~caps actives =
  let groups =
    List.map (fun a -> Problem.single_path a.spec.utility a.spec.path) actives
  in
  Problem.create ~caps ~groups

let safety_cap = 100.

let run ~caps ~make_scheme ~flows ?reutility ?until () =
  let horizon = match until with Some u -> u | None -> safety_cap in
  let pending = ref (sort_flows flows) in
  let actives = ref [] in
  (* newest last, so problem flow order is arrival order *)
  let scheme = ref None in
  let completions = ref [] in
  let now = ref 0. in
  let build () =
    match reutility with
    | None -> build_problem ~caps !actives
    | Some f ->
      let groups =
        List.map
          (fun a ->
            Problem.single_path (f a.spec ~remaining:a.remaining) a.spec.path)
          !actives
      in
      Problem.create ~caps ~groups
  in
  let rebuild () =
    match !actives with
    | [] -> ()
    | _ :: _ ->
      let p = build () in
      (match !scheme with
      | None -> scheme := Some (make_scheme p)
      | Some s -> s.Scheme.rebind p)
  in
  let admit_arrivals () =
    let changed = ref false in
    let rec take () =
      match !pending with
      | f :: rest when f.arrival <= !now +. 1e-15 ->
        pending := rest;
        actives := !actives @ [ { spec = f; remaining = f.size } ];
        changed := true;
        take ()
      | _ -> ()
    in
    take ();
    if !changed then rebuild ()
  in
  let finished = ref false in
  while not !finished do
    admit_arrivals ();
    (match (!actives, !pending) with
    | [], [] -> finished := true
    | [], next :: _ ->
      (* Idle period: jump to the next arrival. *)
      now := Float.max !now next.arrival;
      if !now > horizon then finished := true
    | _ :: _, _ -> (
      match !scheme with
      | None -> assert false
      | Some s ->
        let dt = s.Scheme.interval in
        if Option.is_some reutility then rebuild ();
        s.Scheme.observe_remaining
          (Array.of_list (List.map (fun a -> a.remaining) !actives));
        s.Scheme.step ();
        (* Live view: consumed within this round, before the next step. *)
        let rates = s.Scheme.rates_view () in
        let t0 = !now in
        now := t0 +. dt;
        let departed = ref false in
        List.iteri
          (fun i a ->
            let x = rates.(i) in
            let drained = x *. dt /. 8. in
            if drained >= a.remaining -. 1e-9 && a.remaining > 0. then begin
              let dt_finish =
                if x > 0. then a.remaining *. 8. /. x else dt
              in
              completions :=
                {
                  c_key = a.spec.key;
                  c_arrival = a.spec.arrival;
                  c_size = a.spec.size;
                  c_finish = t0 +. Float.min dt_finish dt;
                }
                :: !completions;
              a.remaining <- 0.;
              departed := true
            end
            else a.remaining <- a.remaining -. drained)
          !actives;
        if !departed then begin
          actives := List.filter (fun a -> a.remaining > 0.) !actives;
          rebuild ()
        end;
        if !now > horizon then finished := true));
    if !now > horizon then finished := true
  done;
  {
    completions = List.rev !completions;
    unfinished = List.length !actives + List.length !pending;
    end_time = !now;
  }

(* --------------------------------------------------------------------- *)
(* Ideal (instantaneous Oracle) driver: event-driven, rates are the exact
   NUM allocation between consecutive events, from an [Oracle.Warm] that
   carries the previous event's prices. *)

(* A flow counts as finished when less than one byte remains: finishing the
   last byte takes microseconds at any realistic rate, and a strictly
   positive threshold prevents a livelock of near-zero-length events around
   floating-point leftovers. *)
let done_threshold_bytes = 1.

let run_ideal ?(tol = 1e-5) ~caps ~flows () =
  let pending = ref (sort_flows flows) in
  let actives = ref [] in
  let completions = ref [] in
  let now = ref 0. in
  let max_events = 1000 * (1 + List.length flows) in
  let n_events = ref 0 in
  let oracle =
    Nf_num.Oracle.Warm.create ~caller:"Dynamic.run_ideal"
      ~n_links:(Array.length caps)
  in
  let solve () =
    match !actives with
    | [] -> [||]
    | _ :: _ -> Nf_num.Oracle.Warm.solve ~tol oracle (build_problem ~caps !actives)
  in
  let rates = ref [||] in
  let finished = ref false in
  while not !finished do
    incr n_events;
    if !n_events > max_events then
      invalid_arg "Dynamic.run_ideal: event budget exceeded (internal)";
    (* Admit all arrivals at the current instant. *)
    let changed = ref false in
    let rec take () =
      match !pending with
      | f :: rest when f.arrival <= !now +. 1e-15 ->
        pending := rest;
        actives := !actives @ [ { spec = f; remaining = f.size } ];
        changed := true;
        take ()
      | _ -> ()
    in
    take ();
    if !changed then rates := solve ();
    match (!actives, !pending) with
    | [], [] -> finished := true
    | [], next :: _ -> now := next.arrival
    | _ :: _, _ ->
      (* Next event: earliest completion at current rates, or next arrival. *)
      let next_arrival =
        match !pending with [] -> infinity | f :: _ -> f.arrival
      in
      let finish_time = Array.make (List.length !actives) infinity in
      let earliest_finish = ref infinity in
      List.iteri
        (fun i a ->
          let x = !rates.(i) in
          if x > 0. then begin
            let t =
              !now +. (Float.max 0. (a.remaining -. done_threshold_bytes) *. 8. /. x)
            in
            finish_time.(i) <- t;
            if t < !earliest_finish then earliest_finish := t
          end)
        !actives;
      let t_next = Float.min next_arrival !earliest_finish in
      if not (Float.is_finite t_next) then begin
        (* No flow can finish and nothing arrives: should not happen since
           the oracle gives every flow a positive rate. *)
        finished := true
      end
      else begin
        let dt = t_next -. !now in
        (* Flows whose computed finish instant is (numerically) this event
           are completed outright: relying on the drained residue alone can
           livelock when the residual drain time underflows the clock. *)
        let finishes_now i =
          !earliest_finish <= next_arrival
          && finish_time.(i) <= !earliest_finish *. (1. +. 1e-12)
        in
        List.iteri
          (fun i a ->
            if finishes_now i then a.remaining <- 0.
            else a.remaining <- Float.max 0. (a.remaining -. (!rates.(i) *. dt /. 8.)))
          !actives;
        now := t_next;
        let departed = ref false in
        List.iter
          (fun a ->
            if a.remaining <= done_threshold_bytes then begin
              completions :=
                {
                  c_key = a.spec.key;
                  c_arrival = a.spec.arrival;
                  c_size = a.spec.size;
                  c_finish = !now;
                }
                :: !completions;
              departed := true
            end)
          !actives;
        if !departed then begin
          actives := List.filter (fun a -> a.remaining > done_threshold_bytes) !actives;
          rates := solve ()
        end;
        if !now > safety_cap then finished := true
      end
  done;
  {
    completions = List.rev !completions;
    unfinished = List.length !actives + List.length !pending;
    end_time = !now;
  }
