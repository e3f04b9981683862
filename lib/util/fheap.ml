(* Structure-of-arrays 4-ary min-heap on float keys with FIFO tie-break.

   [keys] (unboxed floats), [seqs], [auxs] and [slots] are parallel
   arrays indexed by heap position; [data] is indexed by slot and never
   moves. Sift-up/down move a hole instead of swapping, so each level
   costs four int/float reads and writes and never touches a pointer:
   no [caml_modify] write barrier on any sift. [push] writes one payload
   pointer and [drop] clears one.

   [slots] is a permutation of [0, capacity): positions [0, size) hold
   the slots of the heap's elements, positions [size, capacity) are the
   free-slot stack (its top is at [size]). *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable auxs : int array;
  mutable slots : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    keys = Array.make capacity 0.;
    seqs = Array.make capacity 0;
    auxs = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    data = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let length h = h.size

let is_empty h = h.size = 0

(* Only called on a full heap, so every old slot is in use and the new
   slots [cap, 2 cap) become the free stack. *)
let grow h =
  let cap = Array.length h.keys in
  let new_cap = 2 * cap in
  let keys = Array.make new_cap 0. in
  Array.blit h.keys 0 keys 0 cap;
  h.keys <- keys;
  let seqs = Array.make new_cap 0 in
  Array.blit h.seqs 0 seqs 0 cap;
  h.seqs <- seqs;
  let auxs = Array.make new_cap 0 in
  Array.blit h.auxs 0 auxs 0 cap;
  h.auxs <- auxs;
  let slots = Array.init new_cap Fun.id in
  Array.blit h.slots 0 slots 0 cap;
  h.slots <- slots;
  let data = Array.make new_cap h.dummy in
  Array.blit h.data 0 data 0 cap;
  h.data <- data

(* [@inline] on [push]/[top_*]: without it, callers passing a computed
   float key (or consuming the float result) box it at the call boundary
   — the only allocation left on these paths. Inlining keeps the key in a
   register; the closure-converted body itself never allocates. *)
let[@nf.hot] [@inline] push h ~key ~aux v =
  if h.size = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let keys = h.keys and seqs = h.seqs and auxs = h.auxs and slots = h.slots in
  let slot = slots.(h.size) in
  h.data.(slot) <- v;
  (* Sift the hole up: the new element carries the largest seq, so on a
     key tie it stays below the parent (FIFO). Indices stay below [size]
     <= capacity, the length of every array, hence the unchecked
     accesses. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let kp = Array.unsafe_get keys p in
    if key < kp then begin
      Array.unsafe_set keys !i kp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set auxs !i (Array.unsafe_get auxs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set auxs !i aux;
  Array.unsafe_set slots !i slot

let check_nonempty h op =
  if h.size = 0 then invalid_arg (Printf.sprintf "Fheap.%s: empty heap" op)

let[@nf.hot] [@inline] top_key h =
  check_nonempty h "top_key";
  h.keys.(0)

let[@nf.hot] [@inline] top_aux h =
  check_nonempty h "top_aux";
  h.auxs.(0)

let[@nf.hot] [@inline] top h =
  check_nonempty h "top";
  h.data.(h.slots.(0))

let[@nf.hot] drop h =
  check_nonempty h "drop";
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and seqs = h.seqs and auxs = h.auxs and slots = h.slots in
  let freed = slots.(0) in
  h.data.(freed) <- h.dummy;
  let key = keys.(n) and seq = seqs.(n) and aux = auxs.(n) and slot = slots.(n) in
  if n > 0 then begin
    (* Sift the hole down from the root, pulling up the smallest of up to
       four children until the relocated last element fits. Every index
       read is below [n] < capacity. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c0 = (4 * !i) + 1 in
      if c0 >= n then continue := false
      else begin
        let b = ref c0 in
        let bk = ref (Array.unsafe_get keys c0) in
        let bs = ref (Array.unsafe_get seqs c0) in
        let last = if c0 + 3 < n - 1 then c0 + 3 else n - 1 in
        for c = c0 + 1 to last do
          let kc = Array.unsafe_get keys c in
          if kc < !bk || (kc = !bk && Array.unsafe_get seqs c < !bs) then begin
            b := c;
            bk := kc;
            bs := Array.unsafe_get seqs c
          end
        done;
        if !bk < key || (!bk = key && !bs < seq) then begin
          let b = !b in
          Array.unsafe_set keys !i !bk;
          Array.unsafe_set seqs !i !bs;
          Array.unsafe_set auxs !i (Array.unsafe_get auxs b);
          Array.unsafe_set slots !i (Array.unsafe_get slots b);
          i := b
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set auxs !i aux;
    Array.unsafe_set slots !i slot
  end;
  (* The freed slot becomes the top of the free stack. *)
  slots.(n) <- freed

let[@nf.hot] pop h =
  let v = top h in
  drop h;
  v

let clear h =
  for i = 0 to h.size - 1 do
    h.data.(h.slots.(i)) <- h.dummy
  done;
  h.size <- 0
