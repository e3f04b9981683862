(** Simulated packets.

    One record carries every header field any of the implemented protocols
    uses. NUMFabric's five additional transport-layer fields (§5) are
    [virtual_packet_len] and (via the ACK echo) [ack_ipt] for Swift, and
    [path_price], [path_len], [normalized_residual] for xWI. RCP* and
    DCTCP reuse the same echo mechanism for their own feedback
    ([rcp_sum], [ecn]). pFabric carries a [priority] (remaining flow
    size). Unused fields are simply ignored by the other protocols — in a
    real implementation these would be distinct header formats of equal
    total size.

    {b Hot path.} A packet is the one allocation the per-hop path is
    meant to make. The float fields are mutable fields of a record that
    also holds ints and pointers, so each write to one of them ([path_price]
    at every xWI dequeue, the host's stamps) still boxes a fresh float;
    ROADMAP item 7 says why they are not in an all-float sub-record yet.
    {!make_data} and {!make_ack} are [[\@inline]] so the [now] they take
    stays unboxed in the caller. *)

type kind = Data | Ack

type t = {
  flow : int;  (** flow id *)
  seq : int;  (** packet index within the flow (data), or echoed (ACK) *)
  size : int;  (** bytes on the wire *)
  kind : kind;
  mutable hop : int;  (** index of the next link in [path] *)
  path : int array;  (** link ids from source to destination *)
  sent_at : float;
  (* --- NUMFabric data-packet fields (§5) --- *)
  mutable virtual_packet_len : float;  (** L / w; 0 for control packets *)
  mutable path_price : float;  (** accumulated at each dequeue *)
  mutable path_len : int;  (** hop count accumulated with the price *)
  mutable normalized_residual : float;  (** (U'(R) - pathPrice) / pathLen *)
  (* --- other protocols --- *)
  mutable rcp_sum : float;  (** Σ R_l^-α accumulated by RCP* switches *)
  mutable ecn : bool;  (** congestion-experienced mark (DCTCP) *)
  mutable priority : float;  (** pFabric rank: remaining flow bytes *)
  (* --- ACK echo fields --- *)
  mutable ack_ipt : float;  (** receiver inter-packet time; nan if unknown *)
  mutable ack_path_price : float;
  mutable ack_path_len : int;
  mutable ack_rcp_sum : float;
  mutable ack_ecn : bool;
}

val data_size : int
(** 1500 bytes. *)

val ack_size : int
(** 40 bytes. *)

val make_data :
  flow:int -> seq:int -> size:int -> path:int array -> now:float -> t

val make_ack : data:t -> path:int array -> now:float -> t
(** An ACK echoing [data]'s accumulated fields; the caller sets [ack_ipt]
    afterwards if an inter-packet time is available. *)

val is_data : t -> bool

val dummy : t
(** A placeholder (flow -1, size 0) for empty slots in packet arrays;
    never sent. *)
