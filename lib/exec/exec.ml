module Rng = Stratify_prng.Rng
module Online = Stratify_stats.Online
module Obs = Stratify_obs

let default_jobs () = Domain.recommended_domain_count ()

(* Observability: counters and the chunk-latency histogram are no-ops
   unless [Obs.Control.enabled], and atomic, so workers record from
   their own domains; the drain/merge regions are [Obs.Profile] rows,
   no-ops unless profiling is on. *)
let c_chunks = Obs.Counter.make "exec.chunks"
let c_tasks = Obs.Counter.make "exec.tasks"
let h_chunk_ns = Obs.Histogram.make "exec.chunk_ns"

(* Run [work lo hi] over every chunk [lo, hi) of [0, count), on [jobs]
   domains pulling chunk indices from an atomic counter.  The calling
   domain is one of the workers, so [jobs = 1] spawns nothing. *)
let run_chunked ~chunk ~jobs ~count work =
  if count > 0 then begin
    let jobs = max 1 (min jobs count) in
    let n_chunks = (count + chunk - 1) / chunk in
    let next = Atomic.make 0 in
    let observing = Obs.Control.enabled () in
    (* Worker failures are recorded per chunk, never raised inside the
       pool: each chunk index is claimed by exactly one worker (the
       atomic counter), so the cells are written race-free, every domain
       keeps draining the remaining chunks, and after all domains have
       joined the failure with the LOWEST chunk index is re-raised with
       its backtrace.  Which domain ran a failing chunk depends on
       scheduling; the lowest failing chunk index does not — the
       surfaced exception is identical for every [jobs], like the
       results themselves. *)
    let failures = Array.make n_chunks None in
    let worker () =
      let rec loop () =
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks then begin
          let lo = c * chunk in
          let hi = min count (lo + chunk) in
          begin
            try
              if observing then begin
                let t0 = Unix.gettimeofday () in
                work lo hi;
                Obs.Histogram.observe h_chunk_ns
                  (int_of_float (1e9 *. (Unix.gettimeofday () -. t0)));
                Obs.Counter.incr c_chunks;
                Obs.Counter.add c_tasks (hi - lo)
              end
              else work lo hi
            with e -> failures.(c) <- Some (e, Printexc.get_raw_backtrace ())
          end;
          loop ()
        end
      in
      loop ()
    in
    if jobs = 1 then worker ()
    else begin
      let pool = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join pool
    end;
    let rec surface c =
      if c < n_chunks then begin
        match failures.(c) with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> surface (c + 1)
      end
    in
    surface 0
  end

let check_args fn ~chunk ~jobs ~count =
  if chunk <= 0 then invalid_arg (fn ^ ": chunk must be positive");
  if jobs <= 0 then invalid_arg (fn ^ ": jobs must be positive");
  if count < 0 then invalid_arg (fn ^ ": negative count")

let gather fn out =
  Array.map (function Some v -> v | None -> invalid_arg (fn ^ ": replica not computed")) out

let map_replicas ?(chunk = 1) ~jobs ~rng ~replicas f =
  check_args "Exec.map_replicas" ~chunk ~jobs ~count:replicas;
  (* One substream per replica, split sequentially here so neither [jobs]
     nor scheduling can perturb any stream. *)
  let streams = Array.init replicas (fun _ -> Rng.split rng) in
  let out = Array.make replicas None in
  Obs.Profile.with_ "exec.drain" (fun () ->
      run_chunked ~chunk ~jobs ~count:replicas (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- Some (f streams.(i) i)
          done));
  gather "Exec.map_replicas" out

let map_indexed ?(chunk = 1) ~jobs ~count f =
  check_args "Exec.map_indexed" ~chunk ~jobs ~count;
  let out = Array.make count None in
  Obs.Profile.with_ "exec.drain" (fun () ->
      run_chunked ~chunk ~jobs ~count (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- Some (f i)
          done));
  gather "Exec.map_indexed" out

let map_array ?(chunk = 1) ~jobs xs f =
  map_indexed ~chunk ~jobs ~count:(Array.length xs) (fun i -> f xs.(i))

let reduce_replicas ?(chunk = 1) ~jobs ~rng ~replicas ~merge map =
  check_args "Exec.reduce_replicas" ~chunk ~jobs ~count:replicas;
  let streams = Array.init replicas (fun _ -> Rng.split rng) in
  let n_chunks = (replicas + chunk - 1) / chunk in
  let accs = Array.make n_chunks None in
  Obs.Profile.with_ "exec.drain" (fun () ->
      run_chunked ~chunk ~jobs ~count:replicas (fun lo hi ->
          let acc = ref (map streams.(lo) lo) in
          for i = lo + 1 to hi - 1 do
            acc := merge !acc (map streams.(i) i)
          done;
          accs.(lo / chunk) <- Some !acc));
  Obs.Profile.with_ "exec.merge" (fun () ->
      Array.fold_left
        (fun acc c ->
          match acc, c with
          | None, v -> v
          | Some a, Some b -> Some (merge a b)
          | Some _, None -> acc)
        None accs)

let online_replicas ?(chunk = 1) ~jobs ~rng ~replicas f =
  check_args "Exec.online_replicas" ~chunk ~jobs ~count:replicas;
  let streams = Array.init replicas (fun _ -> Rng.split rng) in
  let n_chunks = (replicas + chunk - 1) / chunk in
  let accs = Array.init (max 1 n_chunks) (fun _ -> Online.create ()) in
  Obs.Profile.with_ "exec.drain" (fun () ->
      run_chunked ~chunk ~jobs ~count:replicas (fun lo hi ->
          let acc = accs.(lo / chunk) in
          for i = lo to hi - 1 do
            Online.add acc (f streams.(i) i)
          done));
  Obs.Profile.with_ "exec.merge" (fun () -> Array.fold_left Online.merge (Online.create ()) accs)
