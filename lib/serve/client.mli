(** Blocking test/CLI client for the allocation daemon.

    One connection, synchronous request/reply over the line-delimited
    JSON {!Protocol}; also the scripted churn driver behind
    [nf_run serve-drive] and the CI smoke job, and the one-shot HTTP
    scraper for the [/metrics] endpoint. *)

type t

val connect_tcp : ?host:string -> int -> t
(** Default host 127.0.0.1. @raise Unix.Unix_error on refusal. *)

val connect_unix : string -> t

val close : t -> unit

val request : t -> Protocol.command -> ((string * Nf_util.Json.t) list, string) result
(** Send one command, read one reply line. [Error] on an error reply,
    a decode failure, or EOF. Push lines (from a [subscribe] issued on
    {e this} connection) arriving before the reply are skipped. *)

val read_line : t -> string option
(** Next raw line (e.g. push messages on a subscribed connection);
    [None] on EOF. *)

type drive_report = {
  driven : int;  (** events successfully applied *)
  arrivals : int;
  departures : int;
}

val drive :
  t ->
  rng:Nf_util.Rng.t ->
  scenario:Scenario.t ->
  events:int ->
  target:int ->
  (drive_report, string) result
(** Drive [events] churn events (from {!Scenario.next_event}, population
    hovering around [target]) through the connection, one request/reply
    per event — so the server solves one warm epoch per event. Stops at
    the first protocol error. *)

val scrape_metrics : ?host:string -> int -> (string, string) result
(** One-shot HTTP [GET /metrics] against the given TCP port; the
    response body (Prometheus text) on success. *)
