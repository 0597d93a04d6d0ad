(* Discrete-event engine over one binary min-heap of packed events.

   The heap is a structure of arrays keyed by the total order
   (time, seq): [kt] holds event times, [ks] the engine's insertion
   sequence (which breaks time ties in scheduling order), [kc] the
   event code.  Because the key is total, the pop sequence is a pure
   function of the schedule calls — the determinism every golden,
   matrix manifest and serve snapshot rests on.

   The hot path is allocation-free in steady state: scheduling writes
   three scalars into recycled arrays, firing reads them back and
   dispatches on the int code through the installed handler.  Two
   non-flambda boxing traps shape the code: a freshly computed event
   time is stored straight into the [kt] float array rather than passed
   to a helper as a float argument, and the clock lives in an all-float
   record (a mutable float field in the main mixed record would box on
   every store). *)

(* All-float record: an unboxed mutable cell for the simulated clock. *)
type clock = { mutable now_ : float }

type t = {
  clock : clock;
  mutable kt : float array; (* heap: event time *)
  mutable ks : int array; (* heap: insertion sequence *)
  mutable kc : int array; (* heap: event code *)
  mutable len : int;
  mutable next_seq : int;
  mutable handler : t -> int -> unit;
}

let no_handler (_ : t) (_ : int) =
  invalid_arg "Engine: packed event fired but no packed handler is installed"

(* Bumped when a [drain] call gives up because its event budget ran out —
   the signal that an event loop fed itself forever.  Callers (e.g.
   [Async_dynamics.quiesce]) surface it as an explicit non-convergence
   outcome; the counter makes it visible in run manifests too. *)
let drain_budget_exhausted = Stratify_obs.Counter.make "des.drain_budget_exhausted"

let create () =
  {
    clock = { now_ = 0. };
    kt = [||];
    ks = [||];
    kc = [||];
    len = 0;
    next_seq = 0;
    handler = no_handler;
  }

let now t = t.clock.now_
let pending t = t.len
let set_packed_handler t f = t.handler <- f

let grow t =
  let cap = max 16 (2 * t.len) in
  let kt = Array.make cap 0. and ks = Array.make cap 0 and kc = Array.make cap 0 in
  Array.blit t.kt 0 kt 0 t.len;
  Array.blit t.ks 0 ks 0 t.len;
  Array.blit t.kc 0 kc 0 t.len;
  t.kt <- kt;
  t.ks <- ks;
  t.kc <- kc

(* key at [i] orders strictly before key at [j] *)
let[@inline] before t i j =
  t.kt.(i) < t.kt.(j) || (t.kt.(i) = t.kt.(j) && t.ks.(i) < t.ks.(j))

let[@inline] swap t i j =
  let ft = t.kt.(i) in
  t.kt.(i) <- t.kt.(j);
  t.kt.(j) <- ft;
  let s = t.ks.(i) in
  t.ks.(i) <- t.ks.(j);
  t.ks.(j) <- s;
  let c = t.kc.(i) in
  t.kc.(i) <- t.kc.(j);
  t.kc.(j) <- c

(* Claim the heap cell one past the end for [code] and stamp its seq;
   the caller stores the event time into [kt] at the returned index and
   then calls [sift_up]. *)
let[@inline] claim t code =
  if t.len = Array.length t.kc then grow t;
  let i = t.len in
  t.ks.(i) <- t.next_seq;
  t.kc.(i) <- code;
  t.next_seq <- t.next_seq + 1;
  t.len <- i + 1;
  i

let sift_up t i =
  let i = ref i in
  while !i > 0 && before t !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap t !i parent;
    i := parent
  done

let schedule_packed_at t ~time code =
  if code < 0 then invalid_arg "Engine.schedule_packed_at: negative event code";
  if time < t.clock.now_ then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packed_at: time %g is in the past (now %g)" time
         t.clock.now_);
  let i = claim t code in
  t.kt.(i) <- time;
  sift_up t i

let schedule_packed t ~delay code =
  if code < 0 then invalid_arg "Engine.schedule_packed: negative event code";
  if delay < 0. then
    invalid_arg (Printf.sprintf "Engine.schedule_packed: negative delay %g" delay);
  let i = claim t code in
  t.kt.(i) <- t.clock.now_ +. delay;
  sift_up t i

(* Remove the least event if its time is [<= max_time], advance the
   clock to it and return its code; [-1] (nothing removed) otherwise. *)
let pop_due t max_time =
  if t.len = 0 || t.kt.(0) > max_time then -1
  else begin
    let time = t.kt.(0) in
    if time > t.clock.now_ then t.clock.now_ <- time;
    let code = t.kc.(0) in
    let n = t.len - 1 in
    t.len <- n;
    if n > 0 then begin
      t.kt.(0) <- t.kt.(n);
      t.ks.(0) <- t.ks.(n);
      t.kc.(0) <- t.kc.(n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < n && before t l !smallest then smallest := l;
        if r < n && before t r !smallest then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap t !i !smallest;
          i := !smallest
        end
      done
    end;
    code
  end

let step t =
  let code = pop_due t infinity in
  if code < 0 then false
  else begin
    t.handler t code;
    true
  end

let run_until t ~time =
  if time < t.clock.now_ then
    invalid_arg
      (Printf.sprintf "Engine.run_until: time %g is in the past (now %g)" time
         t.clock.now_);
  let snap = Stratify_obs.Profile.start () in
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let code = pop_due t time in
    if code < 0 then continue := false
    else begin
      t.handler t code;
      incr fired
    end
  done;
  t.clock.now_ <- time;
  Stratify_obs.Profile.stop "des.run_until" ~ops:!fired snap

(* Snapshot support (lib/serve): the heap's cells sorted by their
   (time, seq) key are exactly the future pop order.  Re-scheduling them
   in that order on a fresh engine (restore_packed) assigns increasing
   seqs, so relative order is kept and events scheduled after the
   restore sort behind equal-time restored ones, as in the original. *)
let dump_packed t =
  let order = Array.init t.len Fun.id in
  Array.sort (fun i j -> if before t i j then -1 else if before t j i then 1 else 0) order;
  Array.map (fun i -> (t.kt.(i), t.kc.(i))) order

let restore_packed ~now entries =
  if now < 0. then
    invalid_arg (Printf.sprintf "Engine.restore_packed: negative clock %g" now);
  let t = create () in
  t.clock.now_ <- now;
  Array.iter (fun (time, code) -> schedule_packed_at t ~time code) entries;
  t

let drain ?(max_events = 10_000_000) t =
  let snap = Stratify_obs.Profile.start () in
  let budget = ref max_events in
  while !budget > 0 && step t do
    decr budget
  done;
  let drained = t.len = 0 in
  if not drained then Stratify_obs.Counter.incr drain_budget_exhausted;
  Stratify_obs.Profile.stop "des.drain" ~ops:(max_events - !budget) snap;
  drained
