"""repro.obs — unified tracing, metrics and op-count accounting.

The observability layer the paper's evaluation is written in: a
:class:`MetricsRegistry` the serving runtime reports into (serve
counters and distributions), a span-based :class:`Tracer` whose output
— real-clocked or simulated — exports to
Chrome trace-event JSON openable in Perfetto (Figures 4–6 as actual
artifacts), a :class:`RunReport` bundling metrics + phase breakdown +
per-party/per-channel totals, and a golden op-count regression guard
(:mod:`repro.obs.golden`) that pins Enc/Dec/HAdd/SMul/bytes at a fixed
shape so silent cost regressions fail tier-1.

Zero third-party dependencies; the submodules import nothing from the
rest of the package (components are duck-typed), so ``fed``/``serve``
can report here without cycles.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    band_rule,
    burn_rate_rule,
    rate_rule,
    threshold_rule,
)
from repro.obs.critical import (
    CriticalPath,
    PathSegment,
    compute_slack,
    critical_gantt,
    critical_path,
    critical_path_section,
)
from repro.obs.forensics import (
    Contribution,
    ReportDiff,
    diff_reports,
    diff_scalar_maps,
    explain_failures,
)
from repro.obs.events import Event, EventLog, event_from_wire, read_events_jsonl
from repro.obs.incident import (
    BUNDLE_VERSION,
    IncidentBundle,
    IncidentStore,
    diff_bundles,
    snapshot_incident,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.report import RunReport, channel_report
from repro.obs.trace_export import (
    chrome_trace,
    chrome_trace_events,
    dumps_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Span, Tracer, spans_from_tasks
from repro.obs.whatif import WhatIfResult, break_even, parse_speedups, run_whatif

__all__ = [
    "AlertEngine",
    "AlertRule",
    "BUNDLE_VERSION",
    "COUNT_BUCKETS",
    "Contribution",
    "CriticalPath",
    "Event",
    "EventLog",
    "Histogram",
    "IncidentBundle",
    "IncidentStore",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "PathSegment",
    "ReportDiff",
    "RunReport",
    "Span",
    "Tracer",
    "WhatIfResult",
    "band_rule",
    "break_even",
    "burn_rate_rule",
    "channel_report",
    "chrome_trace",
    "chrome_trace_events",
    "compute_slack",
    "critical_gantt",
    "critical_path",
    "critical_path_section",
    "diff_bundles",
    "diff_reports",
    "diff_scalar_maps",
    "dumps_chrome_trace",
    "event_from_wire",
    "explain_failures",
    "parse_speedups",
    "rate_rule",
    "read_events_jsonl",
    "run_whatif",
    "snapshot_incident",
    "spans_from_tasks",
    "threshold_rule",
    "write_chrome_trace",
]
