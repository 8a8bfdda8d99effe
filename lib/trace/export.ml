(* Chrome trace-event JSON and JSONL writers.  Hand-rolled emission over
   [Util.Json]'s string and float renderers: event names are the only
   strings.

   Both writers stream straight off the sink's ring via [Sink.iter] —
   no intermediate event list is materialized (at a full 32k-event ring
   that list was a measurable serialization cost). *)

(* Timestamp: logical seq when [timing] is off, else wall-clock
   microseconds relative to the first retained event (whose own ts is
   latched on first sight — the stream is oldest-first). *)
let ts_of ~timing ~t0 ev =
  let seq, ts =
    match ev with
    | Sink.Span_begin { seq; ts; _ }
    | Sink.Span_end { seq; ts; _ }
    | Sink.Count { seq; ts; _ }
    | Sink.Gauge { seq; ts; _ } ->
        (seq, ts)
  in
  if Float.is_nan !t0 then t0 := ts;
  if timing then Printf.sprintf "%.3f" ((ts -. !t0) *. 1e6) else string_of_int seq

let chrome ?(timing = false) sink =
  let t0 = ref Float.nan in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit ev =
    if !first then first := false else Buffer.add_string b ",\n";
    let ts = ts_of ~timing ~t0 ev in
    match ev with
    | Sink.Span_begin { name; iter; _ } ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":%s,\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"iter\":%d}}"
             (Util.Json.str name) ts iter)
    | Sink.Span_end { name; iter; _ } ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":%s,\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"iter\":%d}}"
             (Util.Json.str name) ts iter)
    | Sink.Count { name; iter; arg; value; _ } ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":%s,\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"value\":%d,\"iter\":%d,\"arg\":%d}}"
             (Util.Json.str name) ts value iter arg)
    | Sink.Gauge { name; iter; value; _ } ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":%s,\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%s,\"args\":{\"value\":"
             (Util.Json.str name) ts);
        Buffer.add_string b (Util.Json.num value);
        Buffer.add_string b (Printf.sprintf ",\"iter\":%d}}" iter)
  in
  Sink.iter sink emit;
  Buffer.add_string b
    (Printf.sprintf "],\n\"displayTimeUnit\":\"ms\",\"eventCount\":%d,\"dropped\":%d}\n"
       (Sink.seq sink) (Sink.dropped sink));
  Buffer.contents b

let jsonl sink =
  let b = Buffer.create 4096 in
  let emit ev =
    (match ev with
    | Sink.Span_begin { name; iter; seq; _ } ->
        Buffer.add_string b
          (Printf.sprintf "{\"seq\":%d,\"kind\":\"span_begin\",\"name\":%s,\"iter\":%d}" seq
             (Util.Json.str name) iter)
    | Sink.Span_end { name; iter; seq; _ } ->
        Buffer.add_string b
          (Printf.sprintf "{\"seq\":%d,\"kind\":\"span_end\",\"name\":%s,\"iter\":%d}" seq
             (Util.Json.str name) iter)
    | Sink.Count { name; iter; arg; value; seq; _ } ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"seq\":%d,\"kind\":\"count\",\"name\":%s,\"iter\":%d,\"arg\":%d,\"value\":%d}"
             seq (Util.Json.str name) iter arg value)
    | Sink.Gauge { name; iter; value; seq; _ } ->
        Buffer.add_string b
          (Printf.sprintf "{\"seq\":%d,\"kind\":\"gauge\",\"name\":%s,\"iter\":%d,\"value\":" seq
             (Util.Json.str name) iter);
        Buffer.add_string b (Util.Json.num value);
        Buffer.add_char b '}');
    Buffer.add_char b '\n'
  in
  Sink.iter sink emit;
  Buffer.contents b

let write ~path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
