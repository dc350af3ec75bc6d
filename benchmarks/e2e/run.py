"""End-to-end benchmark runner: real-Paillier training wall-clock.

One invocation measures one workload in its own process::

    python3 benchmarks/e2e/run.py --workload train-tall --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times untraced ``FederatedTrainer(config).fit(...)`` calls
for ``--seconds`` seconds (after one untimed warm-up fit) and reports
the end-to-end metrics (``train_s`` is the fastest of those fits: on a
shared host, noise only ever adds time); ``--trace 1`` alternates untraced and traced
fits and reports the per-layer metrics.  Every fit is checked against
the losslessness oracle.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` every workload runs, each mode in a fresh
subprocess, and ``<out>/results.json`` collects the result set;
``--compare A B`` checks result set B against A with the bounds in
``BENCHMARK.json``.  See ``README.md`` next to this file.
"""

# repro: allow-file[DET001] -- measured mode: this runner's purpose is
# timing real training with the wall clock; nothing here feeds SimEngine.

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: fewest timed fits (or untraced/traced pairs) a run reports on
MIN_TIMED = 3
#: fresh-process set-ups timed per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: floor under the ``setup_s`` bound in ``--compare`` (seconds)
SETUP_SLACK_S = 0.1
#: units whose metrics are seed-deterministic and compared exactly
EXACT_UNITS = ("count", "bytes")
#: the paper's per-stage table (Tables 1-2): which per-layer seconds make
#: up each stage, every ``powmod`` charged to the op that asked for it
STAGES = {
    "Enc": (
        "ciphertext.enc.self_s",
        "ciphertext.enc.powmod_s",
        "paillier.obfuscator.self_s",
    ),
    "HAdd+scale+build": (
        "ciphertext.hadd.self_s",
        "ciphertext.scale.self_s",
        "ciphertext.scale.powmod_s",
        "enc_histogram.build.self_s",
        "accumulation.finalize.self_s",
    ),
    "SMul+pack": (
        "ciphertext.smul.self_s",
        "ciphertext.smul.powmod_s",
        "ciphertext.padd.self_s",
        "packing.pack_ciphers.self_s",
        "enc_histogram.pack.self_s",
    ),
    "Dec": (
        "ciphertext.dec.self_s",
        "ciphertext.dec.powmod_s",
        "packing.unpack_values.self_s",
        "enc_histogram.unpack.self_s",
        "enc_histogram.decrypt.self_s",
    ),
    "keygen": ("paillier.keygen.self_s",),
    "comm": ("channel.send.self_s",),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        help="directory for detailed results and span dumps "
        "(default when running every workload: benchmarks/e2e/out)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args.seed, args.seconds, Path(args.out or HERE / "out"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.build_workload(args.workload, args.seed)
    if args.setup_probe:
        return 0
    run = Run(workload)
    measure = run.measure_layers if args.trace else run.measure_end_to_end
    return run.report(args.trace, measure(args.seconds), args.out)


def part_path(out: Path, workload: str, trace: int) -> Path:
    """Where one run of one workload leaves its detailed result."""
    return out / f"{workload}.trace{trace}.json"


def benchmark_spec() -> dict:
    """The benchmark's contract: metrics, units, bounds, run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values: list[float], pick=statistics.median) -> dict:
    """``pick(values)`` with the median, quartiles, extremes and count beside it."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": pick(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def timed_rounds(seconds: float, one_round) -> None:
    """Call ``one_round()`` until ``seconds`` are used up.

    A round that would overrun the budget is not started, except to
    reach :data:`MIN_TIMED` rounds.
    """
    start = time.perf_counter()
    rounds = 0
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        one_round()
        now = time.perf_counter()
        rounds += 1
        longest = max(longest, now - round_start)
        if rounds >= MIN_TIMED and now - start + longest > seconds:
            break


class Run:
    """Measures one workload in this process and judges every fit."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.spec = benchmark_spec()
        self.attempted = 0
        #: fit number -> why that operation failed
        self.failures: dict[int, list[str]] = {}
        #: span dump and stage shares of the last traced fit (``--trace 1``)
        self.last_trace: dict | None = None
        self.last_shares = ""

    def fit(self, recorder=None):
        """One operation: fit, score through the protocol, check.

        Returns ``(wall seconds of the fit, TrainResult, predictor)``,
        or ``None`` when the fit raised or failed the oracle.
        """
        from tracing import traced

        self.attempted += 1
        spans = traced(recorder) if recorder is not None else contextlib.nullcontext()
        try:
            with spans:
                start = time.perf_counter()
                result = self.workload.fit()
                seconds = time.perf_counter() - start
            # Scored outside the layer spans: the predictor's routing
            # messages are not training traffic.
            predictor = self.workload.predictor(result)
            predict = predictor.predict_margin
            if recorder is not None:
                predict = recorder.wrap("inference.predict", predict, leaf=False)
            protocol_margins = predict()
            problems = self.workload.check(result, protocol_margins)
        except Exception:  # operation boundary: record it and keep measuring
            problems = [traceback.format_exc()]
        if problems:
            self.failures[self.attempted] = problems
            return None
        return seconds, result, predictor

    def measure_end_to_end(self, seconds: float) -> dict:
        """Untraced timed fits: the metrics a user of training sees."""
        self.fit()  # warm-up: lazy imports, allocator growth
        train_s: list[float] = []
        wire_bytes: list[int] = []

        def one_round() -> None:
            done = self.fit()
            if done is not None:
                train_s.append(done[0])
                wire_bytes.append(done[1].channel.total_bytes())

        timed_rounds(seconds, one_round)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not train_s:
            return {}
        return {
            "train_s": summary(train_s, min),
            "setup_s": summary(self.setup_probes()),
            "wire_bytes": {"value": wire_bytes[-1]},
            "peak_rss_mb": {"value": peak_rss_mib},
        }

    def setup_probes(self) -> list[float]:
        """Wall seconds of fresh processes that only set the workload up.

        Process start to workload ready: interpreter start, ``import
        repro``, data generation, binning, party split and the two
        reference models.
        """
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", self.workload.spec.name,
            "--seed", str(self.workload.seed),
            "--setup-probe",
        ]
        samples = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - start)
        return samples

    def measure_layers(self, seconds: float) -> dict:
        """Untraced/traced fit pairs: where the time of a fit goes."""
        from tracing import SpanRecorder

        self.fit()  # warm-up
        untraced_s: list[float] = []
        traced_s: list[float] = []
        samples: dict[str, list[float]] = {}

        def one_round() -> None:
            plain = self.fit()
            recorder = SpanRecorder()
            done = self.fit(recorder)
            if plain is None or done is None:
                return
            _, result, predictor = done
            metrics = layer_metrics(self.spec["per_layer"], recorder, predictor)
            mismatches = count_mismatches(metrics, result)
            metrics["trace.count_mismatch"] = len(mismatches)
            if mismatches:
                self.failures[self.attempted] = mismatches
            untraced_s.append(plain[0])
            traced_s.append(done[0])
            for name, value in metrics.items():
                samples.setdefault(name, []).append(value)
            self.last_trace = recorder.to_json()
            self.last_shares = stage_shares(metrics, done[0])

        timed_rounds(seconds, one_round)
        if not traced_s:
            return {}
        detail = {name: summary(values) for name, values in samples.items()}
        detail["trace.train_s"] = summary(traced_s, min)
        detail["trace.overhead_ratio"] = {"value": min(traced_s) / min(untraced_s)}
        return detail

    def report(self, trace: int, detail: dict, out: str | None) -> int:
        """Print every declared metric, then the one-line JSON result.

        Returns the exit code: 0 only when every fit passed the oracle
        and every declared metric was measured.
        """
        declared = self.spec["per_layer" if trace else "end_to_end"]
        name = self.workload.spec.name
        metrics = {}
        for metric in declared:
            entry = detail.get(metric["name"])
            if entry is None:
                continue
            metrics[metric["name"]] = {"value": entry["value"], "unit": metric["unit"]}
            stats = ""
            if "n" in entry and entry["min"] != entry["max"]:
                stats = (
                    f"  (median {entry['median']:.6g}, q1 {entry['q1']:.6g}, "
                    f"q3 {entry['q3']:.6g}, min {entry['min']:.6g}, "
                    f"max {entry['max']:.6g}, n {entry['n']})"
                )
            print(f"{name} {metric['name']} = {entry['value']:.6g} {metric['unit']}{stats}")
        if self.last_shares:
            print(f"{name} {self.last_shares}")
        for number, problems in self.failures.items():
            for problem in problems:
                print(f"{name} fit {number} FAILED: {problem}", file=sys.stderr)
        failed = len(self.failures)
        print(f"{name} fits attempted {self.attempted}, failed {failed}")
        if out is not None:
            part = part_path(Path(out), name, trace)
            part.parent.mkdir(parents=True, exist_ok=True)
            record = {
                "seed": self.workload.seed,
                "attempted": self.attempted,
                "failed": failed,
                "metrics": {
                    m: {**detail[m], "unit": entry["unit"]} for m, entry in metrics.items()
                },
                "meta": run_meta(),
            }
            part.write_text(json.dumps(record, indent=1) + "\n")
            if self.last_trace is not None:
                part.with_suffix(".spans.json").write_text(json.dumps(self.last_trace))
        correct = failed == 0 and len(metrics) == len(declared)
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": self.attempted,
                    "failed": failed,
                    "metrics": metrics,
                }
            )
        )
        return 0 if correct else 1


def stage_shares(metrics: dict[str, float], fit_seconds: float) -> str:
    """One traced fit as the paper's per-stage table, in shares of the fit."""
    shares = {
        stage: sum(metrics[name] for name in names) / fit_seconds
        for stage, names in STAGES.items()
    }
    shares["other"] = 1.0 - sum(shares.values())
    return f"stages of the last traced fit ({fit_seconds:.3f} s): " + ", ".join(
        f"{stage} {share:.1%}" for stage, share in shares.items()
    )


def count_mismatches(metrics: dict[str, float], result) -> list[str]:
    """Span counts that disagree with the program's own counters."""
    from tracing import crypto_op_counts

    mismatches = [
        f"{name}: spans {metrics[name + '.count']} != OpStats {count}"
        for name, count in crypto_op_counts(result.crypto_stats).items()
        if metrics[name + ".count"] != count
    ]
    span_bytes = metrics["channel.bytes_b2a"] + metrics["channel.bytes_a2b"]
    if span_bytes != result.channel.total_bytes():
        mismatches.append(
            f"channel bytes: spans {span_bytes} != channel "
            f"{result.channel.total_bytes()}"
        )
    return mismatches


def layer_metrics(declared: list[dict], recorder, predictor) -> dict[str, float]:
    """The per-layer metrics of one traced fit, by ``BENCHMARK.json`` name."""
    totals = recorder.totals()
    powmod_seconds = recorder.powmod_seconds()
    metrics: dict[str, float] = {}
    for metric in declared:
        span, _, kind = metric["name"].rpartition(".")
        calls, self_seconds = totals.get(span, (0, 0.0))
        if kind == "count":
            metrics[metric["name"]] = calls
        elif kind == "self_s":
            metrics[metric["name"]] = self_seconds
        elif kind == "powmod_s":
            metrics[metric["name"]] = powmod_seconds.get(span, 0.0)
    tallies = recorder.tallies
    packs = metrics["packing.pack_ciphers.count"]
    metrics["packing.pack_width"] = tallies["packing.values"] / packs if packs else 0.0
    metrics["enc_histogram.bins"] = tallies["enc_histogram.bins"]
    metrics["channel.bytes_b2a"] = tallies["channel.bytes_b2a"]
    metrics["channel.bytes_a2b"] = tallies["channel.bytes_a2b"]
    metrics["inference.round_trips"] = predictor.round_trips
    metrics["inference.wire_bytes"] = predictor.bytes_on_wire
    fit_span = next(s for s in recorder.spans if s[2] == "trainer.fit")
    metrics["trace.coverage"] = 1.0 - fit_span[5] / (fit_span[4] - fit_span[3])
    return metrics


def run_meta() -> dict:
    """Where a result came from: host, interpreter, backend, commit."""
    from repro.bench.calibrate import host_fingerprint
    from repro.crypto.math_utils import get_backend

    return {
        "host": host_fingerprint(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": get_backend().name,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (``None`` outside a repo)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_all(seed: int, seconds: float, out: Path) -> int:
    """Every workload, each mode in a fresh subprocess; one result set."""
    results: dict[str, dict] = {}
    status = 0
    for workload in (w["name"] for w in benchmark_spec()["workloads"]):
        merged = results[workload] = {
            "seed": seed, "attempted": 0, "failed": 0, "metrics": {}
        }
        for trace in (0, 1):
            part = part_path(out, workload, trace)
            part.unlink(missing_ok=True)
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            status = status or done.returncode
            if part.is_file():
                record = json.loads(part.read_text())
                merged["attempted"] += record["attempted"]
                merged["failed"] += record["failed"]
                merged["metrics"].update(record["metrics"])
                merged["meta"] = record["meta"]
    (out / "results.json").write_text(
        json.dumps({"workloads": results}, indent=1) + "\n"
    )
    print(f"result set: {out / 'results.json'}")
    return status


def compare(path_a: str, path_b: str) -> int:
    """Check result set B against A: timings within bound, counts exact."""
    spec = benchmark_spec()
    set_a = json.loads(Path(path_a).read_text())["workloads"]
    set_b = json.loads(Path(path_b).read_text())["workloads"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    violations = 0
    for workload in sorted(set(set_a) | set(set_b)):
        if workload not in set_a or workload not in set_b:
            print(f"{workload}: missing from one result set")
            violations += 1
            continue
        a, b = set_a[workload], set_b[workload]
        same_seed = a["seed"] == b["seed"]
        if not same_seed:
            print(f"{workload}: seeds differ, counts and bytes not compared")
        if b["failed"]:
            print(f"{workload}: {b['failed']} of {b['attempted']} fits failed in B")
            violations += 1
        for name in sorted(set(a["metrics"]) | set(b["metrics"])):
            if name not in a["metrics"] or name not in b["metrics"]:
                print(f"{workload} {name}: missing from one result set")
                violations += 1
                continue
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            unit = a["metrics"][name]["unit"]
            if unit in EXACT_UNITS:
                if same_seed and va != vb:
                    print(f"{workload} {name}: {va} -> {vb} {unit} (must be identical)")
                    violations += 1
            elif name in bounds:
                worse = vb - va if bounds[name]["better"] == "lower" else va - vb
                allowed = bounds[name]["bound"] * va
                if name == "setup_s":
                    allowed = max(allowed, SETUP_SLACK_S)
                verdict = "ok" if worse <= allowed else "WORSE"
                print(
                    f"{workload} {name}: {va:.6g} -> {vb:.6g} {unit} "
                    f"({worse / va:+.1%}, bound {allowed / va:.1%}) {verdict}"
                )
                violations += verdict != "ok"
    print(f"{violations} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
