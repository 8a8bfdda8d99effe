(* Snapshot serializers.  See expo.mli. *)

(* OpenMetrics metric names admit only [a-zA-Z0-9_:]; anything else
   (dots, dashes, but also quotes or backslashes in a hostile key) maps
   to '_' so the exposition stays parseable whatever was registered. *)
let sanitize name =
  String.map
    (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

(* OpenMetrics label values: backslash, double-quote and newline must
   be escaped (spec section "Escaping"); emitted raw they terminate the
   label early and corrupt the sample line. *)
let escape_label s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

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
          Buffer.add_string b (Printf.sprintf "%s %s\n" n (fnum g))
      | Registry.Histogram { count; sum; buckets } ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
          let cum = ref 0 in
          List.iter
            (fun (le, c) ->
              cum := !cum + c;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                   (escape_label (string_of_int le))
                   !cum))
            buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (escape_label "+Inf") count);
          Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n sum);
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" n count))
    snap;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let json_value = function
  | Registry.Counter c -> string_of_int c
  | Registry.Gauge g -> fnum g
  | Registry.Histogram { count; sum; buckets } ->
      (* Quantile summary, not a raw bucket dump: the interpolated
         estimates (error bound: Hist.quantile, <= 12.5% relative) are
         what dashboards read, and the full cumulative series is still
         available from the OpenMetrics rendering. *)
      Printf.sprintf "{\"count\": %d, \"sum\": %d, \"p50\": %s, \"p95\": %s}" count sum
        (fnum (Hist.quantile_of_buckets buckets ~count 0.50))
        (fnum (Hist.quantile_of_buckets buckets ~count 0.95))

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
