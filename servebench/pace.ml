(* The machine's pace, probed beside every timed operation.

   On a shared host the benchmark's vCPUs change speed by up to half, in
   stretches of seconds to longer than a whole run, so raw wall times of
   the same code on the same inputs spread by a quarter or more from one
   run to the next. Every end-to-end time is therefore reported *paced*:
   its wall time scaled by [reference_us] over the time [probe] took
   around it, i.e. the time it would have taken with the host at the
   pace where the probe runs in [reference_us]. The probe neither
   allocates nor calls the program, so it measures the host and not the
   code under test: a slower program is still slower by the same factor. *)

(* A small interpreter over random opcodes: indirect branches no
   predictor can learn, and scattered read-modify-writes over a 256 KB
   table. The opcodes come from a generator whose state carries over
   from one call to the next, and the table is read through before the
   loop is timed, so what the program ran in between (its code training
   the branch predictor, its data evicting the table) does not change the
   probe's time. A probe that replayed the same opcodes each time read
   up to 40% slower beside one workload than beside another. *)
let mask = (1 lsl 15) - 1
let mem = Array.make (mask + 1) 0
let state = ref 0x2545F491

let spin () =
  let s = ref !state and acc = ref 1 in
  for _ = 1 to 10_000 do
    s := (!s * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    let r = !s lsr 17 in
    match r land 7 with
    | 0 -> acc := !acc + r
    | 1 -> acc := !acc lxor (r lsr 5)
    | 2 -> if !acc land 1 = 0 then acc := !acc lsr 1 else acc := (3 * !acc) + 1
    | 3 -> acc := !acc * 5 land 0xffffff
    | 4 -> if r land 256 = 0 then acc := !acc - 1 else acc := !acc + 3
    | _ ->
      let i = r land mask in
      mem.(i) <- mem.(i) + !acc;
      acc := !acc + mem.(((i * 31) + 7) land mask)
  done;
  state := !s;
  ignore (Sys.opaque_identity !acc)

let warm () =
  let t = ref 0 in
  for i = 0 to mask do
    t := !t + mem.(i)
  done;
  ignore (Sys.opaque_identity !t)

(* Microseconds for the loop, the best of three: an interrupt in one
   repetition does not count. *)
let probe () =
  warm ();
  let best = ref Int64.max_int in
  for _ = 1 to 3 do
    let t = Spans.now () in
    spin ();
    let d = Int64.sub (Spans.now ()) t in
    if d < !best then best := d
  done;
  Int64.to_float !best /. 1e3

(* A round figure near the probe's median time on the host the figures
   in README.md come from (Intel Xeon, 2 vCPUs), so that paced times there
   read close to wall times. *)
let reference_us = 150.

(* The factor for an operation between two probes. *)
let scale ~before ~after = reference_us /. ((before +. after) /. 2.)
