"""Fixed-work benchmark of wingtail's Fourier, convolution, sweep and Monte
Carlo paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from `src/`.
A run carries out a seeded list of operations, sized from --seconds before
it starts, to the end, and checks each output between the timed operations.
It prints one line per metric and check, and as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
READY = "setup-ready"

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metrics read from the tracer: (function, kind) with kind "calls"
# or "self_ms", both per operation
TRACED = [
    ("numerics.integrate", "calls"), ("numerics.integrate", "self_ms"),
    ("numerics.find_root", "calls"), ("numerics.find_root", "self_ms"),
    ("heston.log_mgf", "calls"), ("heston.log_mgf", "self_ms"),
    ("heston.critical_moments", "self_ms"), ("heston.tail_constants", "self_ms"),
    ("kou.coefficients", "calls"), ("kou.coefficients", "self_ms"),
    ("kou.g1_log", "calls"), ("kou.g2_log", "calls"),
    ("kou.g1_log", "self_ms"), ("kou.g2_log", "self_ms"),
    ("kou.log_jump_mgf", "calls"), ("kou.sample_jump_factors", "self_ms"),
    ("nig.nig_price_density", "calls"), ("nig.nig_price_density", "self_ms"),
    ("nig.log_nig_mgf", "calls"), ("nig.sample_nigs", "self_ms"),
    ("mixed.MixedModel.log_moment", "calls"), ("mixed.MixedModel.log_moment", "self_ms"),
    ("mixed.mixed_density", "self_ms"),
    ("mellin.mellin_convolve", "self_ms"),
    ("oracles.log_density_fourier_logx", "calls"), ("oracles.log_density_fourier_logx", "self_ms"),
    ("oracles.call_fourier", "self_ms"), ("oracles.simulate_paths", "self_ms"),
    ("smile.bs_implied_vol_from_log", "calls"), ("smile.bs_implied_vol_from_log", "self_ms"),
    ("smile.bs_log_call", "calls"), ("smile.smile_expansion", "self_ms"),
    ("cli.cmd_density", "self_ms"), ("cli.cmd_smile", "self_ms"),
    ("cli.cmd_constants", "self_ms"), ("cli.cmd_sample", "self_ms"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the fixed list of operations; no timer cuts the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print a ready line and exit (used to time set-up)")
    return parser.parse_args(argv)


def host_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a gauge of the host's speed."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


@dataclasses.dataclass
class Pass:
    outputs: list  # None where an op raised; empty unless kept
    op_s: list
    failed: int
    errors: list

    @property
    def wall_s(self) -> float:
        """Wall time of the timed phase: the sum of the ops' own intervals."""
        return sum(self.op_s)


def timed_pass(workload, after_op=None, keep: bool = False) -> Pass:
    """Run every operation of the list once, in order.

    `after_op(i, out)` runs untimed after the i-th op. The untraced pass uses
    it for the checks and the set-up probes, so that the timed ops are spread
    over the whole run: the host's speed changes in spells of seconds to tens
    of seconds, and a longer stretch averages over more of them.
    """
    run = Pass([], [], 0, [])
    for i in range(workload.n_ops):
        t0 = time.perf_counter()
        try:
            out = workload.run_op(i)
        except Exception:  # an op that raises is counted as failed, not fatal
            out = None
            run.failed += 1
            run.errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
        run.op_s.append(time.perf_counter() - t0)
        if keep:
            run.outputs.append(out)
        if after_op is not None:
            after_op(i, out)
    return run


def setup_probe(args) -> float:
    """Seconds from spawning a fresh set-up process to its ready line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line != READY or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def layer_metrics(tracer, workload, plain: Pass, traced: Pass, report, loop_ms: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per op where a count or a time."""
    n = workload.n_ops
    metrics = {}
    for fn, kind in TRACED:
        stats = tracer.get(fn)
        if kind == "calls":
            metrics[f"{fn}.calls"] = (stats.calls / n, "count")
        else:
            metrics[f"{fn}.self_ms"] = (stats.self_ns / 1e6 / n, "ms")
    sim_s = tracer.get("oracles.simulate_paths").total_ns / 1e9
    metrics["oracles.simulate_paths.path_steps_per_s"] = (workload.path_steps() / sim_s if sim_s else 0.0, "1/s")
    metrics["trace.overhead_pct"] = ((traced.wall_s / plain.wall_s - 1.0) * 100.0, "%")
    metrics["host.loop_ms"] = (loop_ms, "ms")
    metrics["check.max_rel_err"] = (report.max_rel_err, "1")
    metrics["check.max_abs_z"] = (report.max_abs_z, "1")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "wingtail")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'wingtail')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import wingtail.cli  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS, CheckReport

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    workload.setup()
    if args.setup_probe:
        print(READY, flush=True)
        return 0
    workload.draw()

    loop_ms = host_loop_ms()
    report = CheckReport()
    # the set-up probes run after the ops at these positions
    probe_after = Counter(workload.n_ops * k // (SETUP_SAMPLES + 1) for k in range(1, SETUP_SAMPLES + 1))
    setup_samples = []

    def after_op(i, out):
        if out is not None:
            workload.check(report, i, out)
        for _ in range(probe_after[i]):
            setup_samples.append(setup_probe(args))

    plain = timed_pass(workload, after_op, keep=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracer import Tracer

        workload.reset_caches()
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(workload, keep=True)
        finally:
            tracer.uninstall()
        report.expect(traced.outputs == plain.outputs, "the traced pass gave other outputs than the untraced one")

    failed = plain.failed + len(report.failed_ops)
    for err in plain.errors[:5] + report.failed_ops[:5]:
        print(err, file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {workload.n_ops} ops attempted "
          f"({workload.rounds} rounds of {workload.round_size}), {failed} failed")
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": workload.n_ops / plain.wall_s,
        "op_p50_ms": statistics.median(plain.op_s) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6g} {END_TO_END[name]}")
    print(f"  timed phase    {plain.wall_s:12.6g} s   (host loop {loop_ms:.4g} ms)")
    print(f"  checks         {'passed' if report.correct else 'FAILED'}; max_rel_err {report.max_rel_err:.3g}, "
          f"max_abs_z {report.max_abs_z:.3g}")
    for failure in report.failures:
        print(f"    failed: {failure}")

    if args.trace:
        layers = layer_metrics(tracer, workload, plain, traced, report, loop_ms)
        for name, (value, unit) in layers.items():
            print(f"  {name:<46} {value:14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": report.correct, "attempted": workload.n_ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
