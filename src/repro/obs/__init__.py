"""repro.obs — unified tracing, metrics and op-count accounting.

The observability layer the paper's evaluation is written in: a
:class:`~repro.obs.metrics.MetricsRegistry` the serving runtime reports
into (serve counters and distributions), a span-based
:class:`~repro.obs.tracer.Tracer` whose output — real-clocked or
simulated — exports to Chrome trace-event JSON openable in Perfetto
(Figures 4–6 as actual artifacts), and a
:class:`~repro.obs.report.RunReport` bundling metrics + phase
breakdown + per-party/per-channel totals.

Zero third-party dependencies; the submodules import nothing from the
rest of the package (components are duck-typed), so ``fed``/``serve``
can report here without cycles.
"""
