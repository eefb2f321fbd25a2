(* Per-layer figures read back from the spans the library already
   emits ([bnb.node], [bnb.bound], [socp.solve], [socp.phase1],
   [bnb.incumbent], [bnb.seed], [sched.steal]) during one traced solve.

   A span's self time is its duration minus the part of its interval
   that child spans on the same domain cover.  Spans of one kind never
   overlap on one domain, but a [socp.phase1] can sit inside a
   [socp.solve], so children are merged into a union first. *)

type t = {
  events : int;
  nodes : int;  (** [bnb.node] spans *)
  node_self_us : float;  (** mean per node *)
  bound_us : float;  (** mean per [bnb.bound] span *)
  bound_self_us : float;  (** mean per [bnb.bound] span *)
  bound_total_s : float;
  solves : int;
  solve_us : float;
  solve_max_us : float;  (** slowest [socp.solve] span *)
  newton_per_solve : float;
  phase1s : int;
  phase1_us : float;
  steal_us : float;  (** mean per [sched.steal] span; 0 without steals *)
  gap_integral_nodes : float;
}

let us_of_ns ns = float_of_int ns /. 1e3
let span_end (e : Obs.Trace.event) = e.ts_ns + e.dur_ns

let float_arg key (e : Obs.Trace.event) =
  match List.assoc_opt key e.args with
  | Some (Obs.Trace.Float f) -> Some f
  | Some (Obs.Trace.Int i) -> Some (float_of_int i)
  | _ -> None

(* Sorted [events] of one domain and kind, as [(start, stop)] pairs,
   merged where they overlap. *)
let union events =
  let merged =
    List.fold_left
      (fun acc (e : Obs.Trace.event) ->
        let lo = e.ts_ns and hi = span_end e in
        match acc with
        | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
        | _ -> (lo, hi) :: acc)
      [] events
  in
  Array.of_list (List.rev merged)

(* Nanoseconds of [lo, hi) covered by the disjoint sorted [cover]. *)
let covered cover lo hi =
  (* First interval that ends after [lo]. *)
  let n = Array.length cover in
  let rec first a b =
    if a >= b then a
    else
      let m = (a + b) / 2 in
      if snd cover.(m) <= lo then first (m + 1) b else first a m
  in
  let rec sum i acc =
    if i >= n || fst cover.(i) >= hi then acc
    else
      let a, b = cover.(i) in
      sum (i + 1) (acc + (min hi b - max lo a))
  in
  sum (first 0 n) 0

(* Summed self time of [parents] against [children] (same domain). *)
let self_ns parents children =
  let cover = union children in
  List.fold_left
    (fun acc (e : Obs.Trace.event) ->
      acc + e.dur_ns - covered cover e.ts_ns (span_end e))
    0 parents

let named name = List.filter (fun (e : Obs.Trace.event) -> e.name = name)

let by_domain events =
  let tids =
    List.sort_uniq compare (List.map (fun (e : Obs.Trace.event) -> e.tid) events)
  in
  List.map
    (fun tid -> List.filter (fun (e : Obs.Trace.event) -> e.tid = tid) events)
    tids

let total_dur events =
  List.fold_left (fun acc (e : Obs.Trace.event) -> acc + e.dur_ns) 0 events

let mean_us total count =
  if count = 0 then 0.0 else us_of_ns total /. float_of_int count

(* Anytime view (Berthold, ORL 2013) counted in nodes: every expanded
   node adds min(1, (incumbent - popped lb) / |incumbent|), or 1 while
   no incumbent exists.  Events are in timestamp order and a node span
   is stamped at its start, so each node sees the incumbent it was
   popped against. *)
let gap_integral events =
  let incumbent = ref Float.infinity in
  List.fold_left
    (fun acc (e : Obs.Trace.event) ->
      match e.name with
      | "bnb.incumbent" ->
          Option.iter
            (fun c -> incumbent := Float.min !incumbent c)
            (float_arg "cost" e);
          acc
      | "bnb.node" ->
          let term =
            match float_arg "lb" e with
            | Some lb when Float.is_finite !incumbent && !incumbent <> 0.0 ->
                Float.min 1.0
                  (Float.max 0.0 ((!incumbent -. lb) /. Float.abs !incumbent))
            | _ -> 1.0
          in
          acc +. term
      | _ -> acc)
    0.0 events

let of_events (events : Obs.Trace.event list) =
  let domains = by_domain events in
  let sum f = List.fold_left (fun acc evs -> acc + f evs) 0 domains in
  let is_socp (e : Obs.Trace.event) =
    e.name = "socp.solve" || e.name = "socp.phase1"
  in
  let nodes = named "bnb.node" events in
  let bounds = named "bnb.bound" events in
  let solves = named "socp.solve" events in
  let phase1s = named "socp.phase1" events in
  let steals = named "sched.steal" events in
  let n_nodes = List.length nodes and n_bounds = List.length bounds in
  let n_solves = List.length solves in
  let newton =
    List.fold_left
      (fun acc e -> acc +. Option.value (float_arg "newton" e) ~default:0.0)
      0.0 solves
  in
  {
    events = List.length events;
    nodes = n_nodes;
    node_self_us =
      mean_us
        (sum (fun evs -> self_ns (named "bnb.node" evs) (named "bnb.bound" evs)))
        n_nodes;
    bound_us = mean_us (total_dur bounds) n_bounds;
    bound_self_us =
      mean_us
        (sum (fun evs -> self_ns (named "bnb.bound" evs) (List.filter is_socp evs)))
        n_bounds;
    bound_total_s = float_of_int (total_dur bounds) *. 1e-9;
    solves = n_solves;
    solve_us = mean_us (total_dur solves) n_solves;
    solve_max_us =
      us_of_ns (List.fold_left (fun acc (e : Obs.Trace.event) -> max acc e.dur_ns) 0 solves);
    newton_per_solve =
      (if n_solves = 0 then 0.0 else newton /. float_of_int n_solves);
    phase1s = List.length phase1s;
    phase1_us = mean_us (total_dur phase1s) (List.length phase1s);
    steal_us = mean_us (total_dur steals) (List.length steals);
    gap_integral_nodes = gap_integral events;
  }
