(* Tests for nf_engine: event ordering, scheduling primitives, periodic
   timers, horizons and stopping. *)

module Sim = Nf_engine.Sim

let quick name f = Alcotest.test_case name `Quick f

let qcheck = QCheck_alcotest.to_alcotest

let test_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:3. (fun () -> log := 3 :: !log);
  Sim.schedule sim ~at:1. (fun () -> log := 1 :: !log);
  Sim.schedule sim ~at:2. (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 3. (Sim.now sim);
  Alcotest.(check int) "processed" 3 (Sim.events_processed sim)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~at:1. (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_schedule_from_handler () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:1. (fun () ->
      log := "a" :: !log;
      Sim.schedule_after sim ~delay:0.5 (fun () -> log := "b" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested scheduling" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "clock" 1.5 (Sim.now sim)

let test_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim ~at:2. (fun () ->
      Alcotest.check_raises "past event names both times"
        (Invalid_argument "Sim.schedule: event in the past (at=1, now=2)")
        (fun () -> Sim.schedule sim ~at:1. (fun () -> ())));
  Sim.run sim;
  let sim2 = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
      Sim.schedule_after sim2 ~delay:(-1.) (fun () -> ()))

(* NaN compares false both ways, so "at < now" / "delay < 0" let it
   through into the event heap, whose keys must never be NaN. *)
let test_nan_rejected () =
  let sim = Sim.create () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s: NaN accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "schedule_after ~delay:nan" (fun () ->
      Sim.schedule_after sim ~delay:Float.nan (fun () -> ()));
  rejects "schedule ~at:nan" (fun () ->
      Sim.schedule sim ~at:Float.nan (fun () -> ()));
  rejects "periodic ~interval:nan" (fun () ->
      Sim.periodic sim ~interval:Float.nan (fun () -> ()));
  Alcotest.(check int) "nothing queued" 0 (Sim.pending sim)

(* Handlers are accounted under their scheduling category when profiling
   is on; unlabeled events fall into the "event" bucket. *)
let test_profile_categories () =
  let module Profile = Nf_util.Profile in
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      let sim = Sim.create () in
      Sim.schedule sim ~at:1. ~cat:"alpha" (fun () -> ());
      Sim.schedule sim ~at:2. ~cat:"alpha" (fun () -> ());
      Sim.schedule sim ~at:3. ~cat:"beta" (fun () -> ());
      Sim.schedule sim ~at:4. (fun () -> ());
      Sim.run sim;
      let calls c =
        match
          List.find_opt (fun (n, _, _) -> n = c) (Profile.categories ())
        with
        | Some (_, k, _) -> k
        | None -> 0
      in
      Alcotest.(check int) "alpha handlers" 2 (calls "alpha");
      Alcotest.(check int) "beta handler" 1 (calls "beta");
      Alcotest.(check int) "default category" 1 (calls "event"))

let test_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.schedule sim ~at:t (fun () -> fired := t :: !fired))
    [ 1.; 2.; 3.; 4. ];
  Sim.run ~until:2.5 sim;
  Alcotest.(check (list (float 0.))) "fired up to horizon" [ 1.; 2. ]
    (List.rev !fired);
  Alcotest.(check (float 0.)) "clock at horizon" 2.5 (Sim.now sim);
  (* Resume to the end. *)
  Sim.run sim;
  Alcotest.(check int) "all eventually fired" 4 (List.length !fired)

let test_until_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~at:2. (fun () -> fired := true);
  Sim.run ~until:2. sim;
  Alcotest.(check bool) "event exactly at the horizon fires" true !fired

let test_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~at:(float_of_int i) (fun () ->
        incr count;
        if !count = 3 then Sim.stop sim)
  done;
  Sim.run sim;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Alcotest.(check int) "others pending" 7 (Sim.pending sim)

let test_periodic () =
  let sim = Sim.create () in
  let stamps = ref [] in
  Sim.periodic sim ~interval:1. (fun () -> stamps := Sim.now sim :: !stamps);
  Sim.run ~until:4.5 sim;
  Alcotest.(check (list (float 1e-12))) "periodic stamps" [ 1.; 2.; 3.; 4. ]
    (List.rev !stamps)

let test_periodic_start () =
  let sim = Sim.create () in
  let stamps = ref [] in
  Sim.periodic sim ~start:0.25 ~interval:0.5 (fun () ->
      stamps := Sim.now sim :: !stamps);
  Sim.run ~until:1.6 sim;
  Alcotest.(check (list (float 1e-12))) "custom start" [ 0.25; 0.75; 1.25 ]
    (List.rev !stamps)

let test_empty_run_sets_clock () =
  let sim = Sim.create () in
  Sim.run ~until:5. sim;
  Alcotest.(check (float 0.)) "clock advances to horizon" 5. (Sim.now sim)

let prop_events_fire_in_order =
  QCheck.Test.make ~name:"random schedules always fire in time order" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iter (fun t -> Sim.schedule sim ~at:t (fun () -> fired := t :: !fired)) times;
      Sim.run sim;
      let fired = List.rev !fired in
      fired = List.stable_sort compare times)

let () =
  Alcotest.run "nf_engine"
    [
      ( "sim",
        [
          quick "time order" test_time_order;
          quick "fifo tie-break" test_fifo_ties;
          quick "schedule from handler" test_schedule_from_handler;
          quick "past events rejected" test_past_rejected;
          quick "NaN times rejected" test_nan_rejected;
          quick "profiling categories" test_profile_categories;
          quick "until horizon" test_until_horizon;
          quick "until is inclusive" test_until_inclusive;
          quick "stop" test_stop;
          quick "periodic" test_periodic;
          quick "periodic custom start" test_periodic_start;
          quick "empty run sets clock" test_empty_run_sets_clock;
          qcheck prop_events_fire_in_order;
        ] );
    ]
