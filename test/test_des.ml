(* Tests for the event engine: the pop order is exactly the sorted
   (time, seq) order of everything scheduled, a dump/restore split at any
   pop continues that order, and the packed codec round-trips. *)

module Engine = Stratify_des.Engine
module Packed = Stratify_net.Net.Packed

(* ------------------------------------------------------------------ *)
(* Pop order against a sorted-list reference                           *)

(* A schedule: event times drawn from a continuous range, a coarse
   lattice (many exact duplicates) and a single hot instant, plus a child
   rule applied during the drain.  Every event's code carries the seq the
   engine assigns it ([i]-th schedule call = seq [i]) in its high bits
   and a child selector in its low 3 bits, so the firing log can be
   checked against the reference order without peeking inside the
   engine. *)
let time_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> float_of_int k /. 100.) (int_range 0 1000));
        (2, map (fun k -> float_of_int k *. 0.5) (int_range 0 6));
        (1, return 2.5);
      ])

let script_gen =
  QCheck.Gen.(
    let* n = int_range 1 120 in
    list_size (return n) (pair time_gen (int_bound 7)))

let print_script s =
  String.concat "," (List.map (fun (t, c) -> Printf.sprintf "%g/%d" t c) s)

(* Children inserted mid-drain: selector 1..3 schedules one child at a
   lattice delay (0 included, so it lands on the current instant behind
   every equal-time event), selector 4 one at the hot instant when that
   is still ahead.  A child's own selector is 0: no grandchildren. *)
let child_delay = [| 0.; 0.; 0.5; 1.25 |]

(* Build an engine running the script; [fired] receives (time, seq, code)
   in firing order.  [next_seq] is the test's mirror of the engine's
   insertion counter. *)
let handler ~next_seq ~fired eng code =
  fired := (Engine.now eng, code lsr 3, code) :: !fired;
  let sel = code land 7 in
  let child time_of =
    let seq = !next_seq in
    incr next_seq;
    time_of (seq lsl 3)
  in
  if sel >= 1 && sel <= 3 then
    child (fun c -> Engine.schedule_packed eng ~delay:child_delay.(sel) c)
  else if sel = 4 && Engine.now eng <= 2.5 then
    child (fun c -> Engine.schedule_packed_at eng ~time:2.5 c)

let start script =
  let eng = Engine.create () in
  let next_seq = ref 0 and fired = ref [] in
  Engine.set_packed_handler eng (handler ~next_seq ~fired);
  List.iter
    (fun (time, sel) ->
      let seq = !next_seq in
      incr next_seq;
      Engine.schedule_packed_at eng ~time ((seq lsl 3) lor sel))
    script;
  (eng, next_seq, fired)

let test_sorted_order =
  Helpers.qtest ~count:200 "des: pops in sorted (time, seq) order"
    (QCheck.make ~print:print_script script_gen)
    (fun script ->
      let eng, next_seq, fired = start script in
      ignore (Engine.drain eng);
      let log = List.rev_map (fun (time, seq, _) -> (time, seq)) !fired in
      List.length log = !next_seq && log = List.sort compare log)

(* Split a run at a random pop: dump the queue, restore it into a fresh
   engine at the same clock and drain that.  The firing log must equal
   the uninterrupted run's — and so must the log of the original engine
   drained after the dump, which leaves it untouched. *)
let test_dump_restore_split =
  Helpers.qtest ~count:200 "des: dump/restore split at a random pop"
    (QCheck.make
       ~print:(fun (s, k) -> Printf.sprintf "pop %d of %s" k (print_script s))
       QCheck.Gen.(pair script_gen (int_bound 200)))
    (fun (script, k) ->
      let whole =
        let eng, _, fired = start script in
        ignore (Engine.drain eng);
        List.rev !fired
      in
      let eng, next_seq, fired = start script in
      for _ = 1 to k do
        ignore (Engine.step eng)
      done;
      let before = !fired in
      let dump = Engine.dump_packed eng in
      let pending = Engine.pending eng in
      let restored = Engine.restore_packed ~now:(Engine.now eng) dump in
      let seq_at_dump = !next_seq in
      Engine.set_packed_handler restored (handler ~next_seq ~fired);
      ignore (Engine.drain restored);
      let via_restore = List.rev !fired in
      fired := before;
      next_seq := seq_at_dump;
      ignore (Engine.drain eng);
      Array.length dump = pending && via_restore = whole && List.rev !fired = whole)

(* ------------------------------------------------------------------ *)
(* Packed codec                                                        *)

let test_packed_roundtrip =
  Helpers.qtest ~count:300 "des: packed codec round-trips"
    QCheck.(
      triple (int_bound ((1 lsl Packed.kind_bits) - 1))
        (int_bound ((1 lsl Packed.id_bits) - 1))
        (int_bound ((1 lsl Packed.id_bits) - 1)))
    (fun (kind, src, dst) ->
      let code = Packed.pack_checked ~kind ~src ~dst in
      code >= 0 && Packed.kind code = kind && Packed.src code = src && Packed.dst code = dst)

let test_packed_bounds () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool)
        (name ^ " out of range rejected")
        true
        (try
           ignore (f ());
           false
         with Invalid_argument msg -> Helpers.contains msg name))
    [
      ("kind", fun () -> Packed.pack_checked ~kind:(1 lsl Packed.kind_bits) ~src:0 ~dst:0);
      ("src", fun () -> Packed.pack_checked ~kind:0 ~src:(-1) ~dst:0);
      ("dst", fun () -> Packed.pack_checked ~kind:0 ~src:0 ~dst:(1 lsl Packed.id_bits));
    ]

(* ------------------------------------------------------------------ *)
(* Engine error paths                                                  *)

let test_engine_errors () =
  let eng = Engine.create () in
  let rejects what f =
    Alcotest.(check bool)
      what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  rejects "negative delay rejected" (fun () -> Engine.schedule_packed eng ~delay:(-1.) 0);
  rejects "negative code rejected" (fun () -> Engine.schedule_packed eng ~delay:0. (-1));
  rejects "packed event without handler fails loudly" (fun () ->
      Engine.schedule_packed eng ~delay:0. 7;
      ignore (Engine.drain eng))

let suite =
  [
    Alcotest.test_case "des: packed bounds checks" `Quick test_packed_bounds;
    Alcotest.test_case "des: engine error paths" `Quick test_engine_errors;
    test_sorted_order;
    test_dump_restore_split;
    test_packed_roundtrip;
  ]
