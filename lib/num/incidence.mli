(** Sparse flow×link incidence core.

    The flat data layout the hot NUM kernels iterate over: CSR
    (flow → links on its path), CSC (link → flows crossing it), and the
    group → flows map, all as dense [int array] index arrays, plus the
    problem's live per-link capacity array. Built once per
    {!Problem.t}; see DESIGN.md "Sparse NUM core" for layout and
    ownership rules. *)

type vec = float array
(** Per-flow / per-link / per-group working vector of the sparse
    kernels. OCaml float arrays are already flat unboxed float64, so the
    kernels sweep the caller's own arrays with no copy in between. *)

(** {2 Vector helpers}

    One-liners over [float array], kept because the perfbench probes name
    them. New code should use [Array] directly. *)

val vec : int -> vec
(** Freshly allocated, zero-filled. *)

val vec_of_array : float array -> vec
(** A copy of the array. *)

val vec_of_array_into : float array -> vec -> unit
(** Copy from an array into an existing vec; length taken from the array. *)

type t = private {
  n_links : int;
  n_flows : int;
  n_groups : int;
  nnz : int;  (** total path length over all flows *)
  row_ptr : int array;  (** CSR: flow [i]'s links are [row_cols.(row_ptr.(i) .. row_ptr.(i+1)-1)] *)
  row_cols : int array;  (** link ids in path order (repeats preserved) *)
  col_ptr : int array;  (** CSC: link [l]'s flows are [col_rows.(col_ptr.(l) .. col_ptr.(l+1)-1)] *)
  col_rows : int array;  (** flow ids, ascending, de-duplicated per link *)
  grp_ptr : int array;  (** group [g]'s flows are [grp_flows.(grp_ptr.(g) .. grp_ptr.(g+1)-1)] *)
  grp_flows : int array;  (** flow ids in member order *)
  group_of_flow : int array;
  singleton : bool;  (** every group has exactly one flow *)
  caps : vec;
      (** link capacities: the very array passed to {!create} (for a
          problem's incidence, {!Problem.caps}), shared, not copied, so a
          write into it is seen by the next kernel call *)
}

val create :
  caps:float array ->
  paths:int array array ->
  group_of_flow:int array ->
  n_groups:int ->
  t
(** Build the index arrays; [caps] is kept by reference. Flows must be
    numbered group-major (all of group 0's flows first, then group 1's,
    ...) as {!Problem.create} guarantees. @raise Invalid_argument on
    out-of-range ids. *)

val path_len : t -> int -> int

val link_degree : t -> int -> int
(** Number of distinct flows crossing the link. *)

val path_prices_into : t -> prices:vec -> out:vec -> unit
(** [out.(i) = Σ_{l ∈ L(i)} prices.(l)] for every flow, in path order
    (bit-identical to a per-flow fold over the path). *)

val link_loads_into : t -> rates:vec -> out:vec -> unit
(** Clears [out], then [out.(l) = Σ_{i ∋ l} rates.(i)], accumulated
    flow-major in path order (bit-identical to a per-flow walk). *)

val group_rates_into : t -> rates:vec -> out:vec -> unit
(** [out.(g) = Σ_{i ∈ g} rates.(i)] in member order. *)
