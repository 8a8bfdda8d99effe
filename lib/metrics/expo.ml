(* Snapshot serializers.  See expo.mli. *)

(* OpenMetrics metric names admit only [a-zA-Z0-9_:]; anything else
   (dots, dashes, but also quotes or backslashes in a hostile key) maps
   to '_' so the exposition stays parseable whatever was registered. *)
let sanitize name =
  String.map
    (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let fnum x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> "0"
  | _ -> Printf.sprintf "%.6g" x

let openmetrics snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, _klass, v) ->
      let n = sanitize name in
      match v with
      | Registry.Counter c ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
          Buffer.add_string b (Printf.sprintf "%s_total %d\n" n c)
      | Registry.Gauge g ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string b (Printf.sprintf "%s %s\n" n (fnum g)))
    snap;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let json_value = function
  | Registry.Counter c -> string_of_int c
  | Registry.Gauge g -> fnum g

let sub_object entries =
  "{"
  ^ String.concat ", "
      (List.map (fun (name, _, v) -> Util.Json.str name ^ ": " ^ json_value v) entries)
  ^ "}"

let exact_json snap = sub_object (Registry.exact_only snap)

let json snap =
  Printf.sprintf "{\"exact\": %s, \"timed\": %s}" (exact_json snap)
    (sub_object (Registry.timed_only snap))

let write_openmetrics ~path snap =
  let oc = open_out path in
  output_string oc (openmetrics snap);
  close_out oc

let append_jsonl ~path snap =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (json snap);
  output_char oc '\n';
  close_out oc
