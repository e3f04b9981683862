(* Sparse flow×link incidence core: the flat data layout every hot NUM
   kernel (xWI sweeps, water-filling, load/price accumulation) iterates
   over. Built once per [Problem.t]; see DESIGN.md "Sparse NUM core". *)

type vec = float array

let vec n : vec = Array.make n 0.

let vec_of_array = Array.copy

let vec_of_array_into (a : float array) (v : vec) =
  Array.blit a 0 v 0 (Array.length a)

type t = {
  n_links : int;
  n_flows : int;
  n_groups : int;
  nnz : int;
  row_ptr : int array;
  row_cols : int array;
  col_ptr : int array;
  col_rows : int array;
  grp_ptr : int array;
  grp_flows : int array;
  group_of_flow : int array;
  singleton : bool;
  caps : vec;
}

let create ~caps ~paths ~group_of_flow ~n_groups =
  let n_links = Array.length caps in
  let n_flows = Array.length paths in
  if Array.length group_of_flow <> n_flows then
    invalid_arg "Incidence.create: group_of_flow length";
  (* CSR: flows in index order, each row the path in path order (repeated
     link ids, if any, are kept: a loads sweep must add the flow's rate
     once per traversal, exactly like the dense reference). *)
  let row_ptr = Array.make (n_flows + 1) 0 in
  for i = 0 to n_flows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + Array.length paths.(i)
  done;
  let nnz = row_ptr.(n_flows) in
  let row_cols = Array.make (Stdlib.max nnz 1) 0 in
  for i = 0 to n_flows - 1 do
    let path = paths.(i) in
    let base = row_ptr.(i) in
    for k = 0 to Array.length path - 1 do
      let l = path.(k) in
      if l < 0 || l >= n_links then
        invalid_arg "Incidence.create: link id out of range";
      row_cols.(base + k) <- l
    done
  done;
  (* CSC: per link, the flows crossing it in ascending flow id, each flow
     once even if its path repeats the link (the incidence is a set). Two
     counting passes over the CSR arrays; [seen] de-duplicates within a
     row without a per-flow hash table. *)
  let seen = Array.make n_links (-1) in
  let col_count = Array.make n_links 0 in
  for i = 0 to n_flows - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let l = row_cols.(k) in
      if not (Int.equal seen.(l) i) then begin
        seen.(l) <- i;
        col_count.(l) <- col_count.(l) + 1
      end
    done
  done;
  let col_ptr = Array.make (n_links + 1) 0 in
  for l = 0 to n_links - 1 do
    col_ptr.(l + 1) <- col_ptr.(l) + col_count.(l)
  done;
  let col_rows = Array.make (Stdlib.max col_ptr.(n_links) 1) 0 in
  Array.fill seen 0 n_links (-1);
  let cursor = Array.make n_links 0 in
  Array.blit col_ptr 0 cursor 0 n_links;
  for i = 0 to n_flows - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let l = row_cols.(k) in
      if not (Int.equal seen.(l) i) then begin
        seen.(l) <- i;
        col_rows.(cursor.(l)) <- i;
        cursor.(l) <- cursor.(l) + 1
      end
    done
  done;
  (* Group CSR: flows of each group contiguous, in member order. Flow ids
     are assigned group-major by [Problem.create], so a counting pass over
     [group_of_flow] reproduces the member arrays exactly. *)
  let grp_ptr = Array.make (n_groups + 1) 0 in
  Array.iter
    (fun g ->
      if g < 0 || g >= n_groups then
        invalid_arg "Incidence.create: group id out of range";
      grp_ptr.(g + 1) <- grp_ptr.(g + 1) + 1)
    group_of_flow;
  for g = 0 to n_groups - 1 do
    grp_ptr.(g + 1) <- grp_ptr.(g + 1) + grp_ptr.(g)
  done;
  let grp_flows = Array.make (Stdlib.max n_flows 1) 0 in
  let gcursor = Array.make (Stdlib.max n_groups 1) 0 in
  Array.blit grp_ptr 0 gcursor 0 n_groups;
  Array.iteri
    (fun i g ->
      grp_flows.(gcursor.(g)) <- i;
      gcursor.(g) <- gcursor.(g) + 1)
    group_of_flow;
  let singleton = Int.equal n_groups n_flows in
  {
    n_links;
    n_flows;
    n_groups;
    nnz;
    row_ptr;
    row_cols;
    col_ptr;
    col_rows;
    grp_ptr;
    grp_flows;
    group_of_flow = Array.copy group_of_flow;
    singleton;
    caps;
  }

let path_len t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let link_degree t l = t.col_ptr.(l + 1) - t.col_ptr.(l)

(* Tight CSR/CSC sweeps shared by several kernels. All [@nf.hot]: no
   allocation; indices come straight off the flat index arrays. *)

let[@nf.hot] path_prices_into t ~(prices : vec) ~(out : vec) =
  let row_ptr = t.row_ptr and row_cols = t.row_cols in
  for i = 0 to t.n_flows - 1 do
    let stop = Array.unsafe_get row_ptr (i + 1) in
    let acc = ref 0. in
    for k = Array.unsafe_get row_ptr i to stop - 1 do
      acc :=
        !acc
        +. Array.unsafe_get prices (Array.unsafe_get row_cols k)
    done;
    Array.unsafe_set out i !acc
  done

let[@nf.hot] link_loads_into t ~(rates : vec) ~(out : vec) =
  Array.fill out 0 (Array.length out) 0.;
  let row_ptr = t.row_ptr and row_cols = t.row_cols in
  for i = 0 to t.n_flows - 1 do
    let x = Array.unsafe_get rates i in
    let stop = Array.unsafe_get row_ptr (i + 1) in
    for k = Array.unsafe_get row_ptr i to stop - 1 do
      let l = Array.unsafe_get row_cols k in
      Array.unsafe_set out l (Array.unsafe_get out l +. x)
    done
  done

let[@nf.hot] group_rates_into t ~(rates : vec) ~(out : vec) =
  let grp_ptr = t.grp_ptr and grp_flows = t.grp_flows in
  for g = 0 to t.n_groups - 1 do
    let stop = Array.unsafe_get grp_ptr (g + 1) in
    let acc = ref 0. in
    for k = Array.unsafe_get grp_ptr g to stop - 1 do
      acc := !acc +. Array.unsafe_get rates (Array.unsafe_get grp_flows k)
    done;
    Array.unsafe_set out g !acc
  done
