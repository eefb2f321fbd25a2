(* The inference side of a workload: the CSV the benchmark generates,
   the [ldafp classify] subprocess that streams it, the in-process
   reference the subprocess output is checked against, and timed calls
   into the CSV parser and the batched engine over the same lines. *)

open Ldafp_core

(* Rows drawn per generator call; keeps the line list of one chunk,
   not of the whole file, in memory. *)
let chunk_per_class = 10_000

(* Feed the CSV lines of [rows] generated rows to [emit], chunk by
   chunk, header first.  [emit] returns [false] to stop early.  The
   same [draw] and RNG state give the same lines. *)
let iter_lines ~rows ~draw rng emit =
  let rec go written first =
    if written < rows then begin
      let per_class = min chunk_per_class (max 1 ((rows - written) / 2)) in
      let lines = Datasets.Dataset_io.to_lines (draw ~per_class rng) in
      let lines = if first then lines else List.tl lines in
      if List.for_all emit lines then go (written + (2 * per_class)) false
    end
  in
  go 0 true

let write_csv ~path ~rows ~draw rng =
  Out_channel.with_open_bin path (fun oc ->
      iter_lines ~rows ~draw rng (fun line ->
          output_string oc line;
          output_char oc '\n';
          true))

(* The first [n] data lines of the CSV [write_csv] would write. *)
let sample_lines ~rows ~draw ~n rng =
  let acc = ref [] and count = ref 0 in
  iter_lines ~rows ~draw rng (fun line ->
      if String.starts_with ~prefix:"label" line then true
      else begin
        acc := line :: !acc;
        incr count;
        !count < n
      end);
  Array.of_list (List.rev !acc)

(* Scalar-datapath predictions for every row of [path], as the
   [-o] stream should read, plus their confusion against the labels. *)
let reference clf path =
  let buf = Buffer.create (1 lsl 20) in
  let confusion = ref Stats.Confusion.empty in
  In_channel.with_open_bin path (fun ic ->
      let rec go lineno =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match Datasets.Dataset_io.parse_row lineno line with
            | None -> ()
            | Some (label, feats) ->
                let p = Fixed_classifier.predict clf feats in
                Buffer.add_string buf (if p then "A\n" else "B\n");
                confusion :=
                  Stats.Confusion.add !confusion ~truth:label ~predicted:p);
            go (lineno + 1)
      in
      go 1);
  (Buffer.contents buf, !confusion)

type run = { wall : float; problems : string list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One [ldafp classify --model --data -o] subprocess, timed from spawn
   to exit, its summary and prediction stream checked against
   [expected].  [problems] is empty when every check passed. *)
let run_binary ~exe ~model ~csv ~out ~stdout_path
    ~(expected : string * Stats.Confusion.t) =
  let fd =
    Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = Measure.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process exe
          [| exe; "classify"; "--model"; model; "--data"; csv; "-o"; out |]
          Unix.stdin fd Unix.stderr)
  in
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let wall = Measure.now () -. t0 in
  let preds, c = expected in
  let summary =
    match String.split_on_char '\n' (read_file stdout_path) with
    | first :: second :: _ -> (
        try
          Some
            ( Scanf.sscanf first
                "classified %d row(s) with the %s model: %d predicted A, %d \
                 predicted B"
                (fun rows _ a b -> (rows, a, b)),
              Scanf.sscanf second "against the labels: error rate %f%%"
                (fun e -> e) )
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    | _ -> None
  in
  let pct x = 100.0 *. x in
  let checks =
    [
      ("exit status 0", status = Unix.WEXITED 0);
      ( "confusion line matches Fixed_classifier.predict",
        match summary with
        | Some ((rows, a, b), err) ->
            rows = Stats.Confusion.total c
            && a = c.Stats.Confusion.tp + c.Stats.Confusion.fp
            && b = c.Stats.Confusion.tn + c.Stats.Confusion.fn
            && Float.abs (err -. pct (Stats.Confusion.error_rate c)) <= 0.0051
        | None -> false );
      ( "-o stream matches Fixed_classifier.predict row by row",
        Sys.file_exists out && String.equal (read_file out) preds );
    ]
  in
  {
    wall;
    problems = List.filter_map (fun (l, ok) -> if ok then None else Some l) checks;
  }

type layers = {
  parse_row_ns : float;
  parse_words_per_row : float;
  load_ns_per_row : float;
  predict_ns_per_row : float;
  engine_agrees : bool;  (** batched predictions = scalar predictions *)
}

(* Timed public calls over [lines] (data lines, file order), each a
   median over [reps] passes: [Dataset_io.parse_row], [Engine.load]
   per row, and [Engine.predict_into] per full batch of the CLI's
   default size. *)
let layer_timings ~reps clf lines =
  let n = Array.length lines in
  if n = 0 then invalid_arg "Classify.layer_timings: no lines";
  let rows = ref [||] in
  let parse () =
    Array.mapi
      (fun i line ->
        match Datasets.Dataset_io.parse_row (i + 2) line with
        | Some (_, feats) -> feats
        | None -> failwith "perfbench: blank line in generated CSV")
      lines
  in
  let per_row x = x /. float_of_int n in
  let parse_runs =
    Array.init reps (fun _ ->
        let r, ns, words = Measure.call parse in
        rows := r;
        (per_row (float_of_int ns), per_row words))
  in
  let rows = !rows in
  let capacity = 1024 in
  let engine = Infer.Engine.of_fixed ~capacity clf in
  let batch = Infer.Engine.make_batch engine in
  let out = Bytes.create capacity in
  let load_runs =
    Array.init reps (fun _ ->
        let t0 = Measure.now_ns () in
        Array.iteri
          (fun i feats -> Infer.Engine.load engine batch ~col:(i mod capacity) feats)
          rows;
        per_row (float_of_int (Measure.now_ns () - t0)))
  in
  let agrees = ref true in
  let predict_runs =
    Array.init reps (fun _ ->
        let ns = ref 0 in
        let start = ref 0 in
        while !start < n do
          let k = Infer.Engine.load_rows engine batch ~start:!start ~n:capacity rows in
          let t0 = Measure.now_ns () in
          Infer.Engine.predict_into engine batch out;
          ns := !ns + (Measure.now_ns () - t0);
          for j = 0 to k - 1 do
            if
              (Bytes.get out j = '\001')
              <> Fixed_classifier.predict clf rows.(!start + j)
            then agrees := false
          done;
          start := !start + k
        done;
        per_row (float_of_int !ns))
  in
  {
    parse_row_ns = Measure.median (Array.map fst parse_runs);
    parse_words_per_row = Measure.median (Array.map snd parse_runs);
    load_ns_per_row = Measure.median load_runs;
    predict_ns_per_row = Measure.median predict_runs;
    engine_agrees = !agrees;
  }
