(* Timing, allocation and resource probes shared by every workload. *)

let now = Obs.Clock.now
let now_ns = Obs.Clock.now_ns

(* OCaml 5.1 has no allocation probe that is exact everywhere.  A
   search may run on several domains, so whole solves are measured
   with [Gc.quick_stat], which sums every domain ([Gc.minor_words ()]
   counts only the calling one: a 2-domain search measured with it
   reports about half its words).  But [Gc.quick_stat] only advances
   at minor collections, so a single call allocating less than a minor
   heap reads as 0 words; calls timed one by one on the calling domain
   use [Gc.minor_words ()], which is exact there. *)
let call_words = Gc.minor_words

(* User + system CPU seconds of the whole process, every domain. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Measure.median: empty sample";
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let fastest a =
  if Array.length a = 0 then invalid_arg "Measure.fastest: empty sample";
  Array.fold_left Float.min infinity a

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Peak resident set size of this process (VmHWM), in MB.  Fails when
   /proc does not report it: no other quantity stands in for it. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
        | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
      in
      scan ())

(* Words allocated by the probes themselves around an empty call,
   subtracted from every per-call allocation figure. *)
let probe_words =
  lazy
    (let w0 = call_words () in
     let w1 = call_words () in
     w1 -. w0)

(* One timed call on the calling domain: result, nanoseconds, minor
   words. *)
let call f =
  let overhead = Lazy.force probe_words in
  let w0 = call_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = call_words () in
  (r, t1 - t0, Float.max 0.0 (w1 -. w0 -. overhead))

(* Repeat [f] until [seconds] have passed, at least [min_reps] and at
   most [max_reps] times; [f] gets the repetition index. *)
let repeat_for ~seconds ~min_reps ~max_reps f =
  let t0 = now () in
  let rec go i acc =
    if i >= max_reps || (i >= min_reps && now () -. t0 >= seconds) then
      Array.of_list (List.rev acc)
    else go (i + 1) (f i :: acc)
  in
  go 0 []
