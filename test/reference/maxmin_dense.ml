(* The flow-major water-filling the sparse [Nf_num.Maxmin.solve_sparse]
   replaced, kept as the test oracle: a plain array API with input
   validation, bottleneck links and fair shares, plus the [is_maxmin]
   certificate. Nothing in lib/ calls it. *)

module Problem = Nf_num.Problem

type result = {
  rates : float array;
  bottleneck : int array;
  fair_share : float array;
}

type workspace = {
  w_frozen : bool array;
  w_rem_cap : float array;
  w_active_weight : float array;
  w_active_count : int array;
  w_saturated : bool array;  (* per-round scratch, cleared each round *)
  w_bottleneck : int array;
  w_fair_share : float array;
}

let workspace ~n_links ~n_flows =
  {
    w_frozen = Array.make n_flows false;
    w_rem_cap = Array.make n_links 0.;
    w_active_weight = Array.make n_links 0.;
    w_active_count = Array.make n_links 0;
    w_saturated = Array.make n_links false;
    w_bottleneck = Array.make n_flows (-1);
    w_fair_share = Array.make n_flows 0.;
  }

let validate ~caps ~paths ~weights =
  let n_links = Array.length caps in
  if Array.length paths <> Array.length weights then
    invalid_arg "Maxmin_dense.solve: paths/weights length mismatch";
  Array.iter
    (fun c -> if not (c > 0.) then invalid_arg "Maxmin_dense.solve: non-positive capacity")
    caps;
  Array.iter
    (fun w -> if not (w > 0.) then invalid_arg "Maxmin_dense.solve: non-positive weight")
    weights;
  Array.iter
    (fun path ->
      if Array.length path = 0 then invalid_arg "Maxmin_dense.solve: empty path";
      Array.iter
        (fun l ->
          if l < 0 || l >= n_links then invalid_arg "Maxmin_dense.solve: bad link id")
        path)
    paths

(* Progressive filling: raise the fair-share level of all unfrozen flows
   simultaneously; at each round find the link that saturates first, freeze
   the flows crossing it, and continue. Integer per-link active-flow counts
   (not float weight sums) decide which links still constrain the fill, so
   rounding noise can never leave a phantom constraint that would stall the
   loop. O(rounds * total path length), rounds <= number of links. *)
let solve_core ws ~caps ~paths ~weights ~rates =
  let n_flows = Array.length paths and n_links = Array.length caps in
  let frozen = ws.w_frozen
  and rem_cap = ws.w_rem_cap
  and active_weight = ws.w_active_weight
  and active_count = ws.w_active_count
  and bottleneck = ws.w_bottleneck
  and fair_share = ws.w_fair_share in
  Array.fill frozen 0 n_flows false;
  Array.blit caps 0 rem_cap 0 n_links;
  Array.fill active_weight 0 n_links 0.;
  Array.fill active_count 0 n_links 0;
  Array.fill bottleneck 0 n_flows (-1);
  Array.fill fair_share 0 n_flows 0.;
  Array.fill rates 0 n_flows 0.;
  for i = 0 to n_flows - 1 do
    let path = paths.(i) in
    let w = weights.(i) in
    for k = 0 to Array.length path - 1 do
      let l = path.(k) in
      active_weight.(l) <- active_weight.(l) +. w;
      active_count.(l) <- active_count.(l) + 1
    done
  done;
  let level = ref 0. in
  let n_active = ref n_flows in
  while !n_active > 0 do
    (* Smallest additional fair share that saturates some constraining link. *)
    let delta = ref infinity and argmin = ref (-1) in
    for l = 0 to n_links - 1 do
      if active_count.(l) > 0 then begin
        let d = Float.max 0. (rem_cap.(l) /. active_weight.(l)) in
        if d < !delta then begin
          delta := d;
          argmin := l
        end
      end
    done;
    if !argmin < 0 then begin
      (* No active flow crosses any link: impossible since every flow has a
         non-empty path, but keep a defensive exit. *)
      for i = 0 to n_flows - 1 do
        if not frozen.(i) then begin
          frozen.(i) <- true;
          fair_share.(i) <- !level;
          rates.(i) <- weights.(i) *. !level
        end
      done;
      n_active := 0
    end
    else begin
      let d = !delta in
      level := !level +. d;
      for l = 0 to n_links - 1 do
        if active_count.(l) > 0 then begin
          rem_cap.(l) <- rem_cap.(l) -. (active_weight.(l) *. d);
          if rem_cap.(l) < 0. then rem_cap.(l) <- 0.
        end
      done;
      (* Links saturated at the new level; the argmin link is saturated by
         construction even if rounding left it epsilon above zero. *)
      let saturated = ws.w_saturated in
      Array.fill saturated 0 n_links false;
      saturated.(!argmin) <- true;
      for l = 0 to n_links - 1 do
        if active_count.(l) > 0 && rem_cap.(l) <= 1e-9 *. caps.(l) then
          saturated.(l) <- true
      done;
      let froze_any = ref false in
      for i = 0 to n_flows - 1 do
        if not frozen.(i) then begin
          let path = paths.(i) in
          let hit = ref (-1) in
          for k = 0 to Array.length path - 1 do
            let l = path.(k) in
            if saturated.(l) && !hit = -1 then hit := l
          done;
          if !hit >= 0 then begin
            frozen.(i) <- true;
            froze_any := true;
            bottleneck.(i) <- !hit;
            fair_share.(i) <- !level;
            rates.(i) <- weights.(i) *. !level;
            let w = weights.(i) in
            for k = 0 to Array.length path - 1 do
              let l = path.(k) in
              active_weight.(l) <- active_weight.(l) -. w;
              active_count.(l) <- active_count.(l) - 1
            done;
            decr n_active
          end
        end
      done;
      (* The argmin link has at least one unfrozen flow crossing it, so a
         freeze must have happened; assert the loop variant. *)
      assert !froze_any
    end
  done

let solve ~caps ~paths ~weights =
  validate ~caps ~paths ~weights;
  let n_flows = Array.length paths and n_links = Array.length caps in
  let ws = workspace ~n_links ~n_flows in
  let rates = Array.make n_flows 0. in
  solve_core ws ~caps ~paths ~weights ~rates;
  { rates; bottleneck = ws.w_bottleneck; fair_share = ws.w_fair_share }

let solve_problem problem ~weights =
  solve ~caps:(Problem.caps problem) ~paths:(Problem.paths problem) ~weights

let is_maxmin ?(tol = 1e-6) ~caps ~paths ~weights rates =
  validate ~caps ~paths ~weights;
  let n_links = Array.length caps in
  let loads = Array.make n_links 0. in
  Array.iteri
    (fun i path -> Array.iter (fun l -> loads.(l) <- loads.(l) +. rates.(i)) path)
    paths;
  let feasible =
    Array.for_all (fun x -> x >= -1e-9) rates
    &&
    let ok = ref true in
    for l = 0 to n_links - 1 do
      if loads.(l) > caps.(l) *. (1. +. tol) then ok := false
    done;
    !ok
  in
  (* Max share of any flow on link l, normalized by weight. *)
  let max_share = Array.make n_links 0. in
  Array.iteri
    (fun i path ->
      let share = rates.(i) /. weights.(i) in
      Array.iter
        (fun l -> if share > max_share.(l) then max_share.(l) <- share)
        path)
    paths;
  let has_bottleneck i =
    let share = rates.(i) /. weights.(i) in
    Array.exists
      (fun l ->
        loads.(l) >= caps.(l) *. (1. -. tol)
        && share >= max_share.(l) *. (1. -. tol))
      paths.(i)
  in
  feasible
  &&
  let ok = ref true in
  Array.iteri (fun i _ -> if not (has_bottleneck i) then ok := false) paths;
  !ok
