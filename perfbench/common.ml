(* Plumbing shared by the three workloads: clocks, order statistics,
   process memory, the in-memory span recorder of the traced run, and the
   metric list each workload hands back to [Nf_perfbench]. *)

let now () = Unix.gettimeofday ()

(* Order statistics over possibly-empty samples: an empty sample reads 0
   so the result line never carries NaN (the caller's sample count shows
   that nothing was measured). *)
let percentile xs p = if Array.length xs = 0 then 0. else Nf_util.Stats.percentile xs p

let median xs = percentile xs 50.

let mean xs = if Array.length xs = 0 then 0. else Nf_util.Stats.mean xs

let sum xs = Array.fold_left ( +. ) 0. xs

let floats_of_ints xs = Array.map float_of_int xs

(* Growable float / int buffers for per-operation samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Peak resident set size (the kernel's VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some pid -> Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
              kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end, parent and the id of the request / solve /
   scenario run they belong to. Kept in flat arrays while the workload
   runs and written out once at the end. *)

module Spans = struct
  type t = {
    mutable name : string array;
    mutable parent : int array;
    mutable req : int array;
    mutable start : float array;
    mutable stop : float array;
    mutable n : int;
    origin : float;
  }

  let create () =
    let cap = 4096 in
    {
      name = Array.make cap "";
      parent = Array.make cap (-1);
      req = Array.make cap (-1);
      start = Array.make cap 0.;
      stop = Array.make cap 0.;
      n = 0;
      origin = now ();
    }

  let grow t =
    let cap = 2 * Array.length t.name in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.name <- extend t.name "";
    t.parent <- extend t.parent (-1);
    t.req <- extend t.req (-1);
    t.start <- extend t.start 0.;
    t.stop <- extend t.stop 0.

  (* A span whose interval the caller measured itself. Returns its id. *)
  let add t ~name ~parent ~req ~start ~stop =
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.req.(i) <- req;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.n <- i + 1;
    i

  (* Open a span now; [finish] closes it. *)
  let open_ t ~name ~parent ~req = add t ~name ~parent ~req ~start:(now ()) ~stop:0.

  let finish t i = t.stop.(i) <- now ()

  (* Durations (seconds) of every span with the given name, in order. *)
  let durations t name =
    let b = Fbuf.create () in
    for i = 0 to t.n - 1 do
      if String.equal t.name.(i) name then Fbuf.add b (t.stop.(i) -. t.start.(i))
    done;
    Fbuf.to_array b

  let total t name = sum (durations t name)

  (* One JSON object per line; times in microseconds since the recorder
     was created. *)
  let write t path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"req\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
        i t.name.(i) t.parent.(i) t.req.(i)
        ((t.start.(i) -. t.origin) *. 1e6)
        ((t.stop.(i) -. t.origin) *. 1e6)
    done
end

(* ------------------------------------------------------------------ *)
(* What a workload run hands back. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** how many measurements the value summarises *)
}

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type outcome = {
  end_to_end : metric list;  (** the BENCHMARK.json end_to_end set *)
  workload_metrics : metric list;
      (** the same measurements under the workload's own names
          (alloc_p50_ms, solve_wall_s, sim_wall_s, ...) *)
  per_layer : metric list;  (** traced run only *)
  checks : (string * bool) list;
      (** every operation's and every output check's verdict, by name:
          the result line's [attempted] and [failed] count these *)
  notes : (string * string) list;  (** digests and counts for the record *)
}

(* Run [f] [n] times and return the median of the wall times (the set-up
   time) together with the last run's value; every earlier value is
   handed to [discard] (outside the timed interval) first. *)
let timed_median ?(discard = ignore) n f =
  let times = Array.make n 0. in
  let last = ref None in
  for i = 0 to n - 1 do
    Option.iter discard !last;
    let t0 = now () in
    let v = f () in
    times.(i) <- now () -. t0;
    last := Some v
  done;
  match !last with Some v -> (median times, v) | None -> invalid_arg "timed_median"
