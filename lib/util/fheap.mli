(** Specialized float-keyed min-heap in structure-of-arrays layout.

    The allocation-free priority queue under the two hottest paths of the
    simulator: the discrete-event queue ([Nf_engine.Sim], keyed by event
    time) and the STFQ switch queues ([Nf_sim.Queue_disc], keyed by
    virtual start tag). It stores keys in an unboxed [float array] (plus
    parallel [int] arrays) instead of boxed records, compares with raw
    [<] on floats instead of a [cmp] closure, and exposes field readers
    ([top_key], [top], …) so steady-state push/peek/pop allocates nothing
    (no [Some], no record).

    {b Stationary payloads.} Sifts move only the unboxed arrays — keys,
    sequence numbers, [aux] and an [int] slot index. Payloads stay where
    [push] put them, in a slot-indexed array with a free-slot stack, so
    [push] writes one pointer, [drop] clears one, and no sift level pays
    the [caml_modify] write barrier.

    Ties on the key break FIFO by an internal per-heap sequence number:
    elements with equal keys pop in push order. The heap is 4-ary — one
    level shallower than a binary heap per 4x elements, which wins on the
    mostly-sorted workloads event queues see.

    Keys must not be NaN (comparisons would be vacuously false and the
    heap order meaningless); pushers enforce this upstream. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills empty payload slots so popped (and cleared) elements
    are not retained, and so the arrays can grow without [Obj] tricks. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:float -> aux:int -> 'a -> unit
(** Insert a payload under [key]. [aux] is an arbitrary integer carried
    alongside (the engine stores the profiling-category handle there);
    pass [0] if unused. *)

val top_key : 'a t -> float
(** Key of the minimum element.
    @raise Invalid_argument on an empty heap. *)

val top_aux : 'a t -> int
(** [aux] of the minimum element.
    @raise Invalid_argument on an empty heap. *)

val top : 'a t -> 'a
(** Payload of the minimum element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val drop : 'a t -> unit
(** Remove the minimum element.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a
(** [top] + [drop].
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
(** Empty the heap (payload slots are reset to [dummy]). *)
