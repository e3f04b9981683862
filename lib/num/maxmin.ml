(* Weighted max-min by progressive filling over an [Incidence.t]: raise
   the fair-share level of all unfrozen flows together; each round finds
   the link that saturates first and freezes every flow crossing a
   saturated link. Integer per-link active-flow counts (not float weight
   sums) decide which links still constrain the fill, so rounding noise
   can never leave a phantom constraint that would stall the loop.

   The freeze scan is link-major: only the flows on this round's
   saturated links (their CSC columns) are visited, and each frozen flow
   retires its own CSR row. Work is O(rounds * n_links + nnz). A
   flow-major scan (the dense reference under test/) freezes the same
   flows at the same levels; only the order of the active-weight
   decrements differs, so the two agree to ~1e-9 relative, not bitwise. *)

type sparse_workspace = {
  s_frozen : bool array;  (* n_flows *)
  s_rem_cap : float array;  (* n_links *)
  s_active_weight : float array;  (* n_links *)
  s_active_count : int array;  (* n_links *)
  s_saturated : int array;  (* n_links; this round's saturated link ids *)
  s_live : int array;  (* n_links; compacting list of links with active flows *)
  s_round : int array;  (* n_flows; flows frozen in the current round *)
  s_count0 : int array;  (* n_links; initial active counts (static per inc) *)
  (* Diagnostics of the last solve, read by [Nf_num.Diag]. Ints are
     immediate; the final fill level lives in a 1-element float array
     because a mutable float field of this mixed record would box on
     every store in the hot loop. *)
  mutable s_stat_rounds : int;
  mutable s_stat_saturated : int;
  s_stat_level : float array;  (* length 1 *)
}

let sparse_workspace (inc : Incidence.t) =
  let n_links = inc.Incidence.n_links and n_flows = inc.Incidence.n_flows in
  (* Initial per-link active counts are static for a given incidence
     ([row_cols] is padded to length >= 1, so count within nnz only). *)
  let count0 = Array.make n_links 0 in
  for k = 0 to inc.Incidence.nnz - 1 do
    let l = inc.Incidence.row_cols.(k) in
    count0.(l) <- count0.(l) + 1
  done;
  {
    s_frozen = Array.make n_flows false;
    s_rem_cap = Array.make n_links 0.;
    s_active_weight = Array.make n_links 0.;
    s_active_count = Array.make n_links 0;
    s_saturated = Array.make n_links 0;
    s_live = Array.make n_links 0;
    s_round = Array.make n_flows 0;
    s_count0 = count0;
    s_stat_rounds = 0;
    s_stat_saturated = 0;
    s_stat_level = Array.make 1 0.;
  }

let sparse_rounds ws = ws.s_stat_rounds

let sparse_saturated_links ws = ws.s_stat_saturated

let sparse_level ws = ws.s_stat_level.(0)

let[@nf.hot] solve_sparse ws (inc : Incidence.t)
    ~(weights : float array) ~(rates : float array) =
  let n_flows = inc.Incidence.n_flows and n_links = inc.Incidence.n_links in
  let row_ptr = inc.Incidence.row_ptr
  and row_cols = inc.Incidence.row_cols
  and col_ptr = inc.Incidence.col_ptr
  and col_rows = inc.Incidence.col_rows
  and caps = inc.Incidence.caps in
  let frozen = ws.s_frozen
  and rem_cap = ws.s_rem_cap
  and active_weight = ws.s_active_weight
  and active_count = ws.s_active_count
  and saturated = ws.s_saturated in
  Array.fill frozen 0 n_flows false;
  Array.fill active_weight 0 n_links 0.;
  Array.blit ws.s_count0 0 active_count 0 n_links;
  Array.fill rates 0 n_flows 0.;
  Array.blit caps 0 rem_cap 0 n_links;
  (* Flow-major setup sweep; counts are static and come from the
     precomputed [s_count0]. *)
  for i = 0 to n_flows - 1 do
    let w = Array.unsafe_get weights i in
    let stop = Array.unsafe_get row_ptr (i + 1) in
    for k = Array.unsafe_get row_ptr i to stop - 1 do
      let l = Array.unsafe_get row_cols k in
      Array.unsafe_set active_weight l (Array.unsafe_get active_weight l +. w)
    done
  done;
  (* Links with active flows, ascending; compacted in place as links
     drain so later rounds only scan what is still constraining. Order
     preservation keeps every sweep (and hence argmin tie-breaks and the
     saturated-link freeze order) identical to a full 0..n_links-1 scan
     that skips empty links. *)
  let live = ws.s_live in
  let n_live = ref 0 in
  for l = 0 to n_links - 1 do
    if Array.unsafe_get active_count l > 0 then begin
      Array.unsafe_set live !n_live l;
      incr n_live
    end
  done;
  ws.s_stat_rounds <- 0;
  ws.s_stat_saturated <- 0;
  let level = ref 0. in
  let n_active = ref n_flows in
  while !n_active > 0 do
    let delta = ref infinity and argmin = ref (-1) in
    let kept = ref 0 in
    for s = 0 to !n_live - 1 do
      let l = Array.unsafe_get live s in
      if Array.unsafe_get active_count l > 0 then begin
        Array.unsafe_set live !kept l;
        incr kept;
        let d =
          Float.max 0.
            (Array.unsafe_get rem_cap l /. Array.unsafe_get active_weight l)
        in
        if d < !delta then begin
          delta := d;
          argmin := l
        end
      end
    done;
    n_live := !kept;
    if !argmin < 0 then begin
      (* Defensive: no active flow crosses any link (impossible, every
         flow has a non-empty path). *)
      for i = 0 to n_flows - 1 do
        if not (Array.unsafe_get frozen i) then begin
          Array.unsafe_set frozen i true;
          Array.unsafe_set rates i (Array.unsafe_get weights i *. !level)
        end
      done;
      n_active := 0
    end
    else begin
      let d = !delta in
      level := !level +. d;
      (* Collect this round's saturated links in ascending id order; the
         argmin link is saturated by construction even if rounding left
         it epsilon above zero. *)
      let n_sat = ref 0 in
      for s = 0 to !n_live - 1 do
        let l = Array.unsafe_get live s in
        let rc =
          Array.unsafe_get rem_cap l -. (Array.unsafe_get active_weight l *. d)
        in
        let rc = if rc < 0. then 0. else rc in
        Array.unsafe_set rem_cap l rc;
        if Int.equal l !argmin || rc <= 1e-9 *. Array.unsafe_get caps l
        then begin
          Array.unsafe_set saturated !n_sat l;
          incr n_sat
        end
      done;
      (* Freeze pass: record this round's flows first, then retire their
         CSR rows — and skip the retirement entirely when nothing stays
         active (at the xWI fixpoint every flow freezes in round one, so
         this skips the whole O(nnz) decrement walk on the steady-state
         hot path). Deferral is exact: the decrements only feed later
         rounds, and the same flows are processed in the same order. *)
      let round = ws.s_round in
      let n_round = ref 0 in
      for s = 0 to !n_sat - 1 do
        let l = Array.unsafe_get saturated s in
        let cstop = Array.unsafe_get col_ptr (l + 1) in
        for c = Array.unsafe_get col_ptr l to cstop - 1 do
          let i = Array.unsafe_get col_rows c in
          if not (Array.unsafe_get frozen i) then begin
            Array.unsafe_set frozen i true;
            Array.unsafe_set rates i (Array.unsafe_get weights i *. !level);
            Array.unsafe_set round !n_round i;
            incr n_round
          end
        done
      done;
      (* The argmin link still had at least one unfrozen flow, so some
         freeze must have happened; the loop variant holds. *)
      assert (!n_round > 0);
      ws.s_stat_rounds <- ws.s_stat_rounds + 1;
      ws.s_stat_saturated <- ws.s_stat_saturated + !n_sat;
      n_active := !n_active - !n_round;
      if !n_active > 0 then
        for r = 0 to !n_round - 1 do
          let i = Array.unsafe_get round r in
          let w = Array.unsafe_get weights i in
          let stop = Array.unsafe_get row_ptr (i + 1) in
          for k = Array.unsafe_get row_ptr i to stop - 1 do
            let l' = Array.unsafe_get row_cols k in
            Array.unsafe_set active_weight l'
              (Array.unsafe_get active_weight l' -. w);
            Array.unsafe_set active_count l'
              (Array.unsafe_get active_count l' - 1)
          done
        done
    end
  done;
  ws.s_stat_level.(0) <- !level


let solve_problem problem ~weights =
  let inc = Problem.incidence problem in
  if Array.length weights <> inc.Incidence.n_flows then
    invalid_arg "Maxmin.solve_problem: weights length";
  Array.iter
    (fun w ->
      if not (w > 0.) then invalid_arg "Maxmin.solve_problem: non-positive weight")
    weights;
  let rates = Array.make inc.Incidence.n_flows 0. in
  solve_sparse (sparse_workspace inc) inc ~weights ~rates;
  rates
