(* stale-generation good cases: the sanctioned refresh idioms.
   - Problem.commit between the mutation and the use
   - Xwi_core.resize consuming the stale state (and its result used
     after)
   - uses entirely before the mutation
   - Problem.set_cap, which is not a topology mutation *)

open Nf_num

let spec = Problem.single_path (Utility.proportional_fair ()) [| 0 |]

let good_commit (p : Problem.t) (st : Xwi_core.state) params =
  let _gid = Problem.add_group p spec in
  Problem.commit p;
  Xwi_core.step p params st

let good_resize (p : Problem.t) (st : Xwi_core.state) params =
  let _gid = Problem.add_group p spec in
  let st = Xwi_core.resize p st in
  Xwi_core.step p params st

let good_use_before (p : Problem.t) (st : Xwi_core.state) params =
  Xwi_core.step p params st;
  let _gid = Problem.add_group p spec in
  Problem.commit p

(* A capacity change is not a topology change: the incidence shares the
   live capacity array, so the state stays valid. *)
let good_set_cap (p : Problem.t) (st : Xwi_core.state) params =
  Problem.set_cap p 0 2.;
  Xwi_core.step p params st
