"""Benchmark harness: cost models, calibration, perf gate, rendering."""
