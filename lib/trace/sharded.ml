(* Per-domain trace capture: one ring per worker shard plus
   one ring for the leader/control domain.  See sharded.mli. *)

type t = {
  enabled : bool;
  rings : Sink.t array; (* one per worker shard *)
  leader : Sink.t;
}

(* A traced parallel run creates its rings itself, so they start small
   and grow only as far as the run's events need. *)
let initial = 256

let create ~shards ?(capacity = 32768) ?(profile = false) () =
  if shards < 1 then invalid_arg "Trace.Sharded.create: shards < 1";
  {
    enabled = true;
    rings = Array.init shards (fun _ -> Sink.create ~capacity ~initial ~profile ());
    leader = Sink.create ~capacity ~initial ~profile ();
  }

let disabled = { enabled = false; rings = [| Sink.disabled |]; leader = Sink.disabled }
let is_enabled t = t.enabled
let shards t = Array.length t.rings
let ring t w = t.rings.(w)
let leader t = t.leader

let dropped t =
  Array.fold_left (fun acc r -> acc + Sink.dropped r) (Sink.dropped t.leader) t.rings

(* Drop-proof counter totals summed across every ring. *)
let counter_totals t =
  let totals = Hashtbl.create 32 in
  let fold r =
    List.iter
      (fun (n, v) ->
        Hashtbl.replace totals n (v + Option.value ~default:0 (Hashtbl.find_opt totals n)))
      (Sink.counter_totals r)
  in
  fold t.leader;
  Array.iter fold t.rings;
  Hashtbl.fold (fun n v l -> if v <> 0 then (n, v) :: l else l) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
