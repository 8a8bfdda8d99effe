type abort_reason = Internal_error of string

type diagnosis = {
  mutable crashed_iterations : int;
  mutable rejoins : int;
  mutable transcript_rot : int;
  mutable seed_rot : int;
  mutable stalled_slots : int;
  mutable injected : int;
  mutable iterations_run : int;
  mutable iterations_planned : int;
  mutable wall_s : float;
  mutable notes : string list;
}

type 'a t =
  | Completed of 'a
  | Degraded of 'a * diagnosis
  | Aborted of abort_reason * diagnosis

let fresh_diagnosis () =
  {
    crashed_iterations = 0;
    rejoins = 0;
    transcript_rot = 0;
    seed_rot = 0;
    stalled_slots = 0;
    injected = 0;
    iterations_run = 0;
    iterations_planned = 0;
    wall_s = 0.;
    notes = [];
  }

let clean d =
  d.crashed_iterations = 0 && d.rejoins = 0 && d.transcript_rot = 0 && d.seed_rot = 0
  && d.stalled_slots = 0 && d.injected = 0 && d.notes = []

let note d s = d.notes <- s :: d.notes

let result = function Completed r | Degraded (r, _) -> Some r | Aborted _ -> None
let diagnosis = function Completed _ -> None | Degraded (_, d) | Aborted (_, d) -> Some d

let label = function
  | Completed _ -> "completed"
  | Degraded _ -> "degraded"
  | Aborted _ -> "aborted"

let abort_to_string (Internal_error msg) = "internal error: " ^ msg

let pp_diagnosis fmt d =
  let fields =
    List.filter
      (fun (_, v) -> v > 0)
      [
        ("crashed_iters", d.crashed_iterations);
        ("rejoins", d.rejoins);
        ("transcript_rot", d.transcript_rot);
        ("seed_rot", d.seed_rot);
        ("stalled", d.stalled_slots);
        ("injected", d.injected);
      ]
  in
  if fields = [] && d.notes = [] then Format.fprintf fmt "clean"
  else begin
    Format.fprintf fmt "%s"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields));
    List.iter (fun n -> Format.fprintf fmt " [%s]" n) (List.rev d.notes)
  end
