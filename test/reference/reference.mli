(** Legacy (pre-sparse) xWI kernels, kept as the test oracle.

    These are the original list/array-walking implementations of the
    quantities the sparse CSR/CSC kernels now compute: path prices, link
    loads, Eq. 7 weights, the Eqs. 9–11 price update, and the full xWI
    step. They are intentionally slow, allocate freely, and must not be
    called from production paths — qcheck properties compare the sparse
    results against them (see test/test_num.ml). *)

open Nf_num

val path_price : Problem.t -> prices:float array -> int -> float

val group_rate : Problem.t -> rates:float array -> int -> float

val link_loads : Problem.t -> rates:float array -> float array

val flow_weights :
  Problem.t -> prices:float array -> prev_rates:float array -> float array

val price_update :
  Problem.t -> Xwi_core.params -> prices:float array -> rates:float array ->
  float array
(** One synchronized Eqs. 9–11 update; returns the new prices. *)

val maxmin : Problem.t -> weights:float array -> Maxmin_dense.result
(** The flow-major array-API water-filling ({!Maxmin_dense}). *)

val step :
  Problem.t ->
  Xwi_core.params ->
  prices:float array ->
  rates:float array ->
  weights:float array ->
  unit
(** One full legacy xWI iteration, mutating all three arrays in place
    with the same ordering as {!Xwi_core.step}: weights from [prices] and
    the previous [rates], max-min rates for those weights, then the price
    update. *)
