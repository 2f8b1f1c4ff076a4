(** Renderers for recorded traces and metrics: Chrome trace-event JSON
    (viewable in chrome://tracing and Perfetto), JSONL, and text/JSON
    metrics summaries.  Output order is sorted by trace/registry name, so
    artifacts are byte-identical across runs and worker counts. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    quotes, backslashes and every control character are escaped. *)

val chrome_json : (string * Trace.t) list -> string
(** Chrome trace-event JSON for the named traces.  Each trace becomes a
    process (pid assigned in sorted-name order) and each of its node scopes
    a named thread; spans map to "X", instants to "i", counter samples to
    "C".  Timestamps are simulated microseconds. *)

val jsonl : (string * Trace.t) list -> string
(** One JSON object per event per line, for ad-hoc slicing. *)

val summary : (string * Metrics.t) list -> string
(** Text table of every registry's counters, gauges, and histograms. *)

val metrics_json : (string * Metrics.t) list -> string
(** Flat JSON object keyed by registry name with counters, gauges, and
    histogram summaries (count/mean/p50/p95/p99/max plus log buckets). *)

val save : path:string -> string -> (unit, string) result
(** Write an artifact to disk; [Error msg] on IO failure. *)

val print_summary : (string * Metrics.t) list -> unit
