(* NUM problem instances, now delta-capable: groups can arrive and depart
   after construction (the always-on allocation service applies thousands
   of such events per second). Mutations go to a ledger of group entries
   keyed by stable handles (gids); the dense flow/group index arrays and
   the sparse [Incidence.t] the solvers iterate over are a compiled
   snapshot, rebuilt lazily at the next read ([commit]) rather than per
   event — N arrivals followed by one solve cost one rebuild. See
   DESIGN.md "Serve & delta API". *)

type group_spec = { utility : Utility.t; paths : int array list }

let single_path utility path = { utility; paths = [ path ] }

(* One ledger row per group ever added. [epaths] is validated and copied
   at entry creation and never mutated afterwards, so compiled snapshots
   can share the arrays. A removed group is tombstoned ([alive = false])
   and physically dropped at the next commit (compaction). *)
type entry = {
  gid : int;  (* stable handle, monotonically assigned *)
  utility : Utility.t;
  epaths : int array array;
  mutable alive : bool;
}

type t = {
  capacities : float array;
      (* live; fixed length for the problem's life; shared by every
         compiled incidence *)
  (* compiled snapshot: exactly the dense structure solvers iterate over *)
  mutable flow_paths : int array array;  (* flow -> link ids *)
  mutable groups_of_flow : int array;
  mutable members : int array array;  (* group -> flow ids *)
  mutable utilities : Utility.t array;  (* group -> utility *)
  mutable flows_on_link : int array array;  (* link -> flow ids *)
  mutable incidence : Incidence.t;
  mutable topo_gen : int;  (* bumped on every commit that recompiled *)
  mutable dirty : bool;  (* ledger changed since the last compile *)
  (* ledger *)
  mutable entries : entry array;  (* slots 0..n_entries-1; insertion order *)
  mutable n_entries : int;
  mutable next_gid : int;
  slots : (int, int) Hashtbl.t;  (* gid -> slot (dense group id once clean) *)
  filler : entry;  (* dummy for the growable array's tail *)
}

let validate_path ~ctx ~n_links path =
  if Array.length path = 0 then invalid_arg (ctx ^ ": empty path");
  Array.iter
    (fun lid ->
      if lid < 0 || lid >= n_links then
        invalid_arg (ctx ^ ": link id out of range"))
    path

let entry_of_spec ~ctx ~n_links ~gid spec =
  if List.is_empty spec.paths then invalid_arg (ctx ^ ": group with no paths");
  let epaths =
    Array.of_list
      (List.map
         (fun path ->
           validate_path ~ctx ~n_links path;
           Array.copy path)
         spec.paths)
  in
  { gid; utility = spec.utility; epaths; alive = true }

(* ------------------------------------------------------------------ *)
(* Compile: rebuild the dense snapshot (and the sparse incidence) from
   the live ledger entries. Flows are numbered group-major in ledger
   order, exactly the layout [Incidence.create] requires. O(flows +
   nnz + links) — shared by [create] and the delta path, so batch
   construction and churn maintenance exercise one code route. *)

let compile t =
  let n_links = Array.length t.capacities in
  let n_groups = t.n_entries in
  let total = ref 0 in
  for s = 0 to n_groups - 1 do
    total := !total + Array.length t.entries.(s).epaths
  done;
  let n_flows = !total in
  let flow_paths = Array.make n_flows [||] in
  let groups_of_flow = Array.make n_flows 0 in
  let utilities = Array.init n_groups (fun g -> t.entries.(g).utility) in
  let members = Array.make n_groups [||] in
  let idx = ref 0 in
  for g = 0 to n_groups - 1 do
    let e = t.entries.(g) in
    let m = Array.make (Array.length e.epaths) 0 in
    for k = 0 to Array.length e.epaths - 1 do
      let id = !idx in
      incr idx;
      m.(k) <- id;
      flow_paths.(id) <- e.epaths.(k);
      groups_of_flow.(id) <- g
    done;
    members.(g) <- m
  done;
  let on_link = Array.make n_links [] in
  Array.iteri
    (fun i path ->
      (* Dedup repeated links on a path (shouldn't happen, but keeps the
         incidence structure a set). *)
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun lid ->
          if not (Hashtbl.mem seen lid) then begin
            Hashtbl.add seen lid ();
            on_link.(lid) <- i :: on_link.(lid)
          end)
        path)
    flow_paths;
  t.flow_paths <- flow_paths;
  t.groups_of_flow <- groups_of_flow;
  t.members <- members;
  t.utilities <- utilities;
  t.flows_on_link <- Array.map (fun l -> Array.of_list (List.rev l)) on_link;
  t.incidence <-
    Incidence.create ~caps:t.capacities ~paths:flow_paths
      ~group_of_flow:groups_of_flow ~n_groups;
  t.topo_gen <- t.topo_gen + 1;
  t.dirty <- false

let commit t =
  if t.dirty then begin
    (* Compaction: drop tombstoned entries, preserving insertion order,
       so slot index = dense group id for the compiled snapshot. *)
    let kept = ref 0 in
    for s = 0 to t.n_entries - 1 do
      let e = t.entries.(s) in
      if e.alive then begin
        t.entries.(!kept) <- e;
        Hashtbl.replace t.slots e.gid !kept;
        incr kept
      end
      else Hashtbl.remove t.slots e.gid
    done;
    (* Unpin the dropped entries' memory. *)
    for s = !kept to t.n_entries - 1 do
      t.entries.(s) <- t.filler
    done;
    t.n_entries <- !kept;
    compile t
  end

let[@inline] force t = if t.dirty then commit t

(* ------------------------------------------------------------------ *)
(* Construction *)

let validate_caps caps =
  Array.iteri
    (fun i c ->
      if not (c > 0.) then
        invalid_arg (Printf.sprintf "Problem.create: capacity %d not positive" i))
    caps

let create_groups ~caps ~groups =
  validate_caps caps;
  let capacities = Array.copy caps in
  let n_links = Array.length capacities in
  let n = Array.length groups in
  let filler =
    { gid = -1; utility = Utility.proportional_fair (); epaths = [||]; alive = false }
  in
  let entries =
    Array.init (Stdlib.max n 1) (fun g ->
        if g < n then entry_of_spec ~ctx:"Problem.create" ~n_links ~gid:g groups.(g)
        else filler)
  in
  let slots = Hashtbl.create (Stdlib.max n 16) in
  for g = 0 to n - 1 do
    Hashtbl.replace slots entries.(g).gid g
  done;
  let t =
    {
      capacities;
      flow_paths = [||];
      groups_of_flow = [||];
      members = [||];
      utilities = [||];
      flows_on_link = [||];
      incidence =
        Incidence.create ~caps:capacities ~paths:[||] ~group_of_flow:[||]
          ~n_groups:0;
      topo_gen = 0;
      dirty = false;
      entries;
      n_entries = n;
      next_gid = n;
      slots;
      filler;
    }
  in
  compile t;
  t

let create ~caps ~groups =
  if List.is_empty groups then invalid_arg "Problem.create: no groups";
  create_groups ~caps ~groups:(Array.of_list groups)

(* ------------------------------------------------------------------ *)
(* Delta interface *)

let add_group t spec =
  let e =
    entry_of_spec ~ctx:"Problem.add_group" ~n_links:(Array.length t.capacities)
      ~gid:t.next_gid spec
  in
  t.next_gid <- t.next_gid + 1;
  if t.n_entries = Array.length t.entries then begin
    let grown = Array.make (Stdlib.max 4 (2 * t.n_entries)) t.filler in
    Array.blit t.entries 0 grown 0 t.n_entries;
    t.entries <- grown
  end;
  t.entries.(t.n_entries) <- e;
  Hashtbl.replace t.slots e.gid t.n_entries;
  t.n_entries <- t.n_entries + 1;
  t.dirty <- true;
  e.gid

let remove_group t gid =
  match Hashtbl.find_opt t.slots gid with
  | None -> invalid_arg (Printf.sprintf "Problem.remove_group: unknown gid %d" gid)
  | Some slot ->
    let e = t.entries.(slot) in
    if not e.alive then
      invalid_arg (Printf.sprintf "Problem.remove_group: gid %d already removed" gid)
    else begin
      e.alive <- false;
      t.dirty <- true
    end

let mem_group t gid =
  match Hashtbl.find_opt t.slots gid with
  | None -> false
  | Some slot -> t.entries.(slot).alive

let group_index t gid =
  force t;
  Hashtbl.find_opt t.slots gid

let group_gid t g =
  force t;
  t.entries.(g).gid

let dirty t = t.dirty

let generation t =
  force t;
  t.topo_gen

(* ------------------------------------------------------------------ *)
(* Capacities: the array is live (Figure 10 changes link speeds mid-run)
   and the compiled incidence holds the same array, so a write here is
   seen by the next kernel sweep with nothing to announce. *)

let caps t = t.capacities

let set_cap t l c =
  if l < 0 || l >= Array.length t.capacities then
    invalid_arg "Problem.set_cap: link id out of range";
  if not (c > 0.) then invalid_arg "Problem.set_cap: capacity not positive";
  t.capacities.(l) <- c

(* ------------------------------------------------------------------ *)
(* Compiled-snapshot accessors (all force a pending commit first) *)

let n_links t = Array.length t.capacities

let n_flows t =
  force t;
  Array.length t.flow_paths

let n_groups t =
  force t;
  Array.length t.members

let flow_path t i =
  force t;
  t.flow_paths.(i)

let flow_group t i =
  force t;
  t.groups_of_flow.(i)

let path_len t i =
  force t;
  Array.length t.flow_paths.(i)

let group_members t g =
  force t;
  t.members.(g)

let group_utility t g =
  force t;
  t.utilities.(g)

let link_flows t l =
  force t;
  t.flows_on_link.(l)

let paths t =
  force t;
  t.flow_paths

let incidence t =
  force t;
  t.incidence

let group_rate t ~rates g =
  force t;
  let members = t.members.(g) in
  let acc = ref 0. in
  for k = 0 to Array.length members - 1 do
    acc := !acc +. rates.(members.(k))
  done;
  !acc

(* The [_into] sweeps and [path_price] run once per solver iteration,
   so they walk the flat CSR index arrays of [t.incidence] instead of the
   array-of-arrays path structure, in the same operand order as a
   per-flow walk (bit-identical). *)

let group_rates_into t ~rates out =
  force t;
  Incidence.group_rates_into t.incidence ~rates ~out

let link_loads_into t ~rates loads =
  force t;
  Incidence.link_loads_into t.incidence ~rates ~out:loads

let[@nf.hot] path_price t ~prices i =
  force t;
  let inc = t.incidence in
  let row_ptr = inc.Incidence.row_ptr and row_cols = inc.Incidence.row_cols in
  let stop = Array.unsafe_get row_ptr (i + 1) in
  let acc = ref 0. in
  for k = Array.unsafe_get row_ptr i to stop - 1 do
    acc := !acc +. Array.unsafe_get prices (Array.unsafe_get row_cols k)
  done;
  !acc

let is_single_path t =
  force t;
  Array.for_all (fun m -> Array.length m = 1) t.members

let total_utility t ~rates =
  force t;
  let total = ref 0. in
  for g = 0 to Array.length t.members - 1 do
    total := !total +. t.utilities.(g).Utility.value (group_rate t ~rates g)
  done;
  !total

let feasible ?(tol = 1e-6) t ~rates =
  force t;
  Array.for_all (fun x -> x >= 0.) rates
  &&
  let loads = Array.make (Array.length t.capacities) 0. in
  link_loads_into t ~rates loads;
  let ok = ref true in
  Array.iteri
    (fun l load -> if load > t.capacities.(l) *. (1. +. tol) then ok := false)
    loads;
  !ok
