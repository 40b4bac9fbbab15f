(* Host-speed calibration.

   The host the benchmark was built on is a 2-vCPU VM whose speed
   changes by tens of percent over seconds to minutes. A fixed pure-CPU
   loop timed in 150 ms slices ranged from 100 to 167 ms, and in busy
   periods the hypervisor stole 20-40% of both vCPUs. Thirty-second
   medians of raw episode times then spread by 15-30% between runs,
   which hides any change smaller than that. Two corrections remove
   most of it:

   - Steal: times are taken in CPU seconds of this process
     ({!Span.cpu}), which leave the stolen time out. The workloads run on
     one domain and do no I/O, so without steal the two clocks agree
     (CPU/wall 0.97-0.99 over whole runs).
   - Speed: a fixed kernel, timed in CPU seconds right before and right
     after each episode, slows down with the episode (its wall time
     correlated 0.83 with the episode's over 191 episodes of
     entangled-pairs). Episode times are multiplied by
     [reference_s] / the kernel's time. That cut the spread of
     ten-episode medians from 0.27 to 0.06 of the median.

   The kernel is the benchmark's own stdlib code (an integer array pass
   plus string-keyed hashtable inserts and lookups, like the program's
   own mix of arithmetic and allocation), so no change to the program
   can move it. *)

(* The kernel's median CPU time on the build host; it only sets the
   scale, so that reference-speed figures read close to that host's. *)
let reference_s = 0.07

(* CPU seconds for one pass of the kernel. *)
let kernel () =
  Span.time "calibration" (fun () ->
      let c0 = Span.cpu () in
      let a = Array.init 100_000 Fun.id in
      let acc = ref 0 in
      for _ = 1 to 50 do
        Array.iteri (fun i x -> acc := !acc + (x lxor i)) a
      done;
      let h = Hashtbl.create 16 in
      let key i = string_of_int (i * 7919) in
      for i = 0 to 40_000 do
        Hashtbl.replace h (key i) (List.init 5 (fun j -> i + j))
      done;
      for i = 0 to 40_000 do
        match Hashtbl.find_opt h (key i) with
        | Some l -> acc := !acc + List.length l
        | None -> ()
      done;
      ignore (Sys.opaque_identity !acc);
      Span.cpu () -. c0)

(* Reference-speed factor from the kernel times before and after an
   episode: multiply a CPU time measured in the episode by it. *)
let scale before after = reference_s /. ((before +. after) /. 2.0)
