#!/usr/bin/env python3
"""The gamma13 benchmark.

    python3 bench/run.py --workload {exact,formcheck,words} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
process drives ``gamma13.cli.main(argv)`` (and a few library calls) as a
closed loop: one client, one command at a time, stdout and stderr
captured.  Every command's outcome is compared with an answer computed
independently in ``oracle.py``.  Commands come in passes (see
``workloads.py``); passes run until the next one would end well past
``--seconds``.  End-to-end times are scaled to a nominal host speed by the
gauge in ``hostspeed.py``, sampled between commands and while they run.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: kernels on fixed operands, then the first pass untraced, traced and
untraced again.  The last stdout line is the JSON result; the full
record, with the run's environment, goes to ``bench/out/``.  The exit code
is 1 when any outcome differs from its known answer and 2 on bad usage or
a checkout without the package.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
MIN_PASSES = 3
SEGMENT_S = 0.5
SETUP_CODE = "import sys\nfrom gamma13.cli import main\nsys.exit(main(sys.argv[1:]))"
LAYERS = ("exactnum", "projmat", "groupring", "grammar", "certificate",
          "level13", "gamma0", "qseries", "numeric", "cli")


class Runner:
    """Runs commands one at a time and keeps one record per execution:
    (position in the list, kind, seconds, verdict right, error).  With a
    gauge, passes also keep (position, scaled seconds), and the gauge's
    time is taken out of the seconds."""

    def __init__(self, tracer=None, gauge=None):
        self.tracer = tracer
        self.gauge = gauge
        self.records: List[Tuple[int, str, float, bool, bool]] = []
        self.scaled: List[Tuple[int, float]] = []
        self.factors: List[float] = []
        self.failures: List[Dict[str, object]] = []

    def execute(self, position: int, cmd) -> float:
        from gamma13 import cli
        from workloads import CliOutcome

        raised = None
        gauge_s = self.gauge.spent if self.gauge else 0.0
        if cmd.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            code = -1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(list(cmd.argv))
                except Exception:  # recorded as an error, the loop goes on
                    raised = traceback.format_exc()
                elapsed = time.perf_counter() - start
            result: object = CliOutcome(code, out.getvalue(), err.getvalue())
            error = raised is not None or code not in (0, 1)
        else:
            result = None
            start = time.perf_counter()
            try:
                result = cmd.call()
            except Exception:  # recorded as an error, the loop goes on
                raised = traceback.format_exc()
            elapsed = time.perf_counter() - start
            error = raised is not None
        if self.gauge:
            elapsed -= self.gauge.spent - gauge_s
        ok = False
        if not error:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                try:
                    ok = bool(cmd.check(result))
                except Exception:  # a malformed outcome is a wrong verdict
                    ok = False
        self.records.append((position, cmd.kind, elapsed, ok, error))
        if not ok and len(self.failures) < 10:
            self.failures.append({"label": cmd.label, "error": error,
                                  "raised": raised, "outcome": repr(result)[-2000:]})
        return elapsed

    def run_pass(self, commands: Sequence) -> float:
        """Seconds spent inside the commands of one pass.  With a gauge, the
        commands are cut into stretches of at least SEGMENT_S, the gauge
        is sampled at each cut, and each time is also kept scaled by the
        samples on both sides of its stretch and those taken during it."""
        if not self.gauge:
            return sum(self.execute(i, cmd) for i, cmd in enumerate(commands))
        samples = self.gauge.samples
        total = segment_s = 0.0
        segment: List[Tuple[int, float]] = []
        first = len(samples)
        self.gauge.take()
        for i, cmd in enumerate(commands):
            elapsed = self.execute(i, cmd)
            total += elapsed
            segment_s += elapsed
            segment.append((i, elapsed))
            if segment_s >= SEGMENT_S or i == len(commands) - 1:
                cut = len(samples)
                self.gauge.take()
                factor = hostspeed.scale(samples[first:])
                self.scaled.extend((p, t * factor) for p, t in segment)
                self.factors.append(factor)
                first, segment, segment_s = cut, [], 0.0
        return total

    def medians(self, commands: Sequence, scaled: bool = True) -> List[float]:
        """Each command's median time over the passes, scaled or raw."""
        times: List[List[float]] = [[] for _ in commands]
        if scaled:
            for position, seconds in self.scaled:
                times[position].append(seconds)
        else:
            for position, _, seconds, _, _ in self.records:
                if position >= 0:
                    times[position].append(seconds)
        return [statistics.median(t) for t in times]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def wrong(self) -> int:
        return sum(1 for r in self.records if not r[3])

    @property
    def errors(self) -> int:
        return sum(1 for r in self.records if r[4])


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The highest of a fixed ladder of percentiles with at least ten
    samples beyond it (nearest rank), with the sample count."""
    data = sorted(samples)
    n = len(data)
    best: Dict[str, float] = {"count": n}
    for pct in (50, 75, 90, 95, 99, 99.9):
        idx = max(0, math.ceil(pct * n / 100) - 1)
        if n - 1 - idx >= 10:
            best.update(percentile=pct, value_ms=1e3 * data[idx])
    return best


def kind_stats(commands: Sequence, typical: Sequence[float],
               raw: Sequence[float],
               first: Sequence[float]) -> Dict[str, Dict[str, object]]:
    """Per kind: median and tail of the commands' scaled median times, the
    median of their raw median times, and the median of their first
    (coldest, raw) times."""
    stats: Dict[str, Dict[str, object]] = {}
    for kind in sorted({c.kind for c in commands}):
        idx = [i for i, c in enumerate(commands) if c.kind == kind]
        stats[kind] = {"median_ms": 1e3 * statistics.median(typical[i] for i in idx),
                       "raw_median_ms": 1e3 * statistics.median(raw[i] for i in idx),
                       "first_pass_median_ms":
                       1e3 * statistics.median(first[i] for i in idx),
                       "tail": tail([typical[i] for i in idx])}
    return stats


def measure_setup(argv: Sequence[str]) -> Tuple[float, bool, List[float]]:
    """Median scaled wall time of a fresh interpreter that imports
    gamma13.cli and runs ``argv``; the first, unmeasured start compiles the
    bytecode.  Each start is scaled by gauge samples taken just before and
    after it.  Also returns the raw times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE, *argv]
    gauge = hostspeed.Gauge()
    samples, raw, ok = [], [], True
    for i in range(SETUP_REPEATS + 1):
        first = len(gauge.samples)
        gauge.take()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # A blocking wait returns as soon as the child exits; Popen.wait with
        # a timeout polls in steps of up to 50 ms, which would round the time.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        gauge.take()
        if i:
            samples.append(elapsed * hostspeed.scale(gauge.samples[first:]))
            raw.append(elapsed)
        ok = ok and code == 0
    return statistics.median(samples), ok, raw


def environment(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    import mpmath

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "run_seconds": seconds,
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": src_lines}


def run_untraced(wl, seconds: int) -> Tuple[Runner, Dict[str, float], Dict]:
    """End-to-end metrics from whole passes over the command list: each
    command's median scaled time over the passes."""
    setup_s, setup_ok, setup_raw = measure_setup(wl.setup_argv())
    commands = wl.commands
    pass_walls: List[float] = []
    start = time.perf_counter()
    with hostspeed.Gauge() as gauge:
        runner = Runner(gauge=gauge)
        while True:
            began = time.perf_counter()
            runner.run_pass(commands)
            pass_walls.append(time.perf_counter() - began)
            # Whole passes only, so every command has the same number of
            # tries, and at least MIN_PASSES of them; after that, stop
            # before a pass that would end past the run's length.
            elapsed = time.perf_counter() - start
            if (len(pass_walls) >= MIN_PASSES
                    and elapsed + statistics.median(pass_walls) > seconds):
                break
    runner.gauge = None
    first = [r[2] for r in runner.records[:len(commands)]]
    typical = runner.medians(commands)
    raw = runner.medians(commands, scaled=False)
    if not setup_ok:
        runner.records.append((-1, "setup", setup_s, False, True))
        runner.failures.append({"label": f"setup {wl.setup_argv()}"})

    def median_of(kind: str) -> float:
        return statistics.median(t for t, c in zip(typical, commands)
                                 if c.kind == kind)

    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "main_ms": 1e3 * median_of(wl.main_kind),
        "side_ms": 1e3 * median_of(wl.side_kind),
        "verdict_ok_share": 1 - runner.wrong / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"passes": len(pass_walls), "pass_wall_s": pass_walls,
             "raw_wall_s": sum(raw), "raw_setup_s": setup_raw,
             "first_pass_s": sum(first),
             "gauge_samples": len(gauge.samples), "gauge_s": gauge.spent,
             "host_scale": {"median": statistics.median(runner.factors),
                            "min": min(runner.factors),
                            "max": max(runner.factors)},
             "main_kind": wl.main_kind,
             "side_kind": wl.side_kind,
             "error_share": runner.errors / runner.attempted,
             "commands": kind_stats(commands, typical, raw, first)}
    return runner, metrics, extra


def run_traced(wl, stem: Path) -> Tuple[Runner, Dict[str, float], Dict]:
    """Per-layer metrics: kernels, then the list untraced, traced, untraced."""
    import kernels
    import spans
    import gamma13

    layer_modules = tuple(importlib.import_module(f"gamma13.{m}") for m in LAYERS)
    kernel_values = kernels.run(ROOT)
    commands = wl.commands
    runner = Runner()
    before = runner.run_pass(commands)
    tracer = spans.Tracer((gamma13,) + layer_modules)
    runner.tracer = tracer
    tracer.install()
    try:
        traced = runner.run_pass(commands)
    finally:
        tracer.uninstall()
    runner.tracer = None
    # Untraced passes on both sides of the traced one, against drift.
    untraced = (before + runner.run_pass(commands)) / 2
    tracer.write(stem)
    s = tracer.summary()

    def share(part: str, whole: str) -> float:
        total = s.inclusive(whole)
        return s.inclusive(part) / total if total else 0.0

    formchecks = s.count("numeric.run_formcheck")
    mains = s.count("cli.main")
    values: Dict[str, float] = dict(kernel_values)
    values.update({f"{m}.self_s": s.module_self(m) for m in LAYERS if m != "cli"})
    values.update({
        "exactnum.quad_mul_calls": s.count("exactnum.QuadElem.__mul__",
                                           "exactnum.QuadElem.__rmul__"),
        "projmat.mul_calls": s.count("projmat.ProjMat.__mul__"),
        "groupring.mul_calls": s.count("groupring.RingElem.__mul__",
                                       "groupring.RingElem.__rmul__"),
        "certificate.step_checks": s.count("certificate._check_step"),
        "gamma0.evaluate_share": share("gamma0.Word.evaluate", "gamma0.decompose"),
        "numeric.suggest_points_share": share("numeric.suggest_points",
                                              "numeric.run_formcheck"),
        "numeric.residual_self_s": s.self_time.get("numeric._residual", 0.0),
        "numeric.cert_builds_per_formcheck": (
            s.count_under("level13.build_f_certificate", "numeric.run_formcheck")
            / formchecks if formchecks else 0.0),
        "cli.self_us": 1e6 * s.module_self("cli") / mains if mains else 0.0,
        "trace.overhead_share": (traced - untraced) / untraced,
        "trace.glue_share": (traced - s.root_time) / traced,
    })
    extra = {"spans": s.spans, "untraced_pass_s": untraced,
             "traced_pass_s": traced,
             "module_self_s": {m: s.module_self(m) for m in LAYERS},
             "top_self_s": dict(sorted(s.self_time.items(),
                                       key=lambda kv: -kv[1])[:25])}
    return runner, values, extra


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gamma13" / "cli.py").is_file():
        print(f"no gamma13 package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The CLI reads HECKE_PREC; the benchmark always runs at the default.
    os.environ.pop("HECKE_PREC", None)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seconds < 1:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, ROOT,
                                  OUT / f"inputs-{args.workload}-seed{args.seed}")
    if args.trace:
        runner, metrics, extra = run_traced(wl, stem)
    else:
        runner, metrics, extra = run_untraced(wl, args.seconds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} are "
                           f"computed or declared in BENCHMARK.json, not both")
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.wrong,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = {"result": result,
              "environment": environment(args.workload, args.seed, args.seconds),
              "details": extra, "failures": runner.failures}
    stem.with_suffix(".result.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    for key in ("passes", "raw_wall_s", "error_share"):
        if key in extra:
            print(f"{key:36s} {extra[key]:14.6g}")
    for kind, st in extra.get("commands", {}).items():
        t = st["tail"]
        line = (f"  {kind:16s} n={t['count']:<4d} median {st['median_ms']:10.3f} ms"
                f"  first pass {st['first_pass_median_ms']:10.3f} ms")
        if "percentile" in t:
            line += f"  p{t['percentile']} {t['value_ms']:10.3f} ms"
        print(line)
    for failure in runner.failures:
        print(f"WRONG: {failure['label']}", file=sys.stderr)
    print(json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
