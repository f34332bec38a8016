"""Benchmark for leakbound: one workload per heavy layer, exact-output checks.

    python3 bench/run.py --workload query|lp|simul --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # each workload in its own process

Run from a checkout; the library is imported from ``src/`` beside this
directory and nowhere else. One caller issues operations in a closed loop
(the next starts when the previous returns) until ``--seconds`` have
passed, finishing the current round of the input mix. Every output is checked exactly, and for the default seed against
``golden.json``. With ``--trace 0`` the last line of output reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from
wrappers around the library's public functions (see ``tracing.py``).
Inputs, spans and a result record go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0
SETUPS = 9  # set-up repetitions; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_of(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, wl_class) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_of(ROOT),
        "process": f"own process (pid {os.getpid()}), one thread, closed loop",
        "inputs": wl_class.properties(),
    }


def import_library():
    """Fresh import of leakbound from the checkout's src/."""
    for name in [n for n in sys.modules if n == "leakbound" or n.startswith("leakbound.")]:
        del sys.modules[name]
    lb = importlib.import_module("leakbound")
    importlib.import_module("leakbound.cli")
    if not Path(lb.__file__).resolve().is_relative_to(SRC):
        fail(f"leakbound imported from {lb.__file__}, not from {SRC}")
    return lb


class Run:
    """Issues operations, checks them, and tallies failures."""

    def __init__(self, workload, golden: list | None, clock: speed.SpeedClock):
        self.wl = workload
        self.golden = golden or []
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, i: int, op) -> tuple[float, int]:
        """Run and check operation i: (raw latency in seconds, index of
        the speed sample taken before it)."""
        mark = self.clock.mark()
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.wl.run(op)
        except Exception:
            elapsed = perf_counter() - start
            self._fail(i, "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            return elapsed, mark
        elapsed = perf_counter() - start
        try:
            problems, values = self.wl.check(op, result)
        except Exception:
            problems, values = ["check raised " + traceback.format_exc(limit=3)], None
        if i < len(self.golden) and values is not None and values != self.golden[i]:
            problems.append(f"golden values {self.golden[i]}, got {values}")
        if problems:
            self._fail(i, "; ".join(problems))
        return elapsed, mark

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i}: {message}")


def setup(wl_class, seed: int, workdir: Path, clock: speed.SpeedClock):
    """Import the library and make the first round of inputs; returns the
    raw and the speed-scaled set-up time."""
    mark = clock.sample()
    start = perf_counter()
    lb = import_library()
    wl = wl_class(lb, seed, workdir)
    first = [wl.make(i) for i in range(len(wl_class.STRATA))]
    raw = perf_counter() - start
    clock.sample()
    return raw, raw * clock.scale(mark), wl, first


def end_to_end(args, wl_class, workdir: Path, golden, clock) -> tuple[Run, dict, dict, dict]:
    setups = [setup(wl_class, args.seed, workdir, clock) for _ in range(SETUPS)]
    _, _, wl, first = setups[-1]
    run = Run(wl, golden, clock)
    rounds = len(wl_class.STRATA)
    timed: list[tuple[float, int]] = []
    wall0 = perf_counter()
    while not timed or len(timed) % rounds or perf_counter() - wall0 < args.seconds:
        i = len(timed)
        timed.append(run.op(i, first[i] if i < rounds else wl.make(i)))
    clock.sample()
    n = len(timed)
    raw = [t for t, _ in timed]
    ms = sorted(t * clock.scale(mark) * 1000 for t, mark in timed)
    tail = statistics.quantiles(ms, n=100, method="inclusive")[wl_class.TAIL_PCT - 1]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled, _, _ in setups),
        "ops_per_s": n / sum(ms) * 1000,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_metrics = {
        "setup_s": statistics.median(r for r, _, _, _ in setups),
        "ops_per_s": n / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1000,
        "op_tail_ms": statistics.quantiles(raw, n=100, method="inclusive")[
            wl_class.TAIL_PCT - 1] * 1000,
    }
    beyond = sum(1 for t in ms if t > tail)
    samples = {
        "setup_s": f"median of {SETUPS} set-ups",
        "ops_per_s": f"{n} ops, {sum(raw):.3f} s raw",
        "op_p50_ms": f"{n} ops",
        "op_tail_ms": f"p{wl_class.TAIL_PCT} of {n} ops; {beyond} beyond it",
        "peak_rss_mb": "1 process, including set-up",
    }
    return run, metrics, samples, raw_metrics


def traced(args, wl_class, workdir: Path, golden, clock) -> tuple[Run, dict, dict, dict]:
    import tracing

    _, _, wl, first = setup(wl_class, args.seed, workdir, clock)
    batch = first + [wl.make(i) for i in range(len(first), len(first) * wl_class.TRACE_ROUNDS)]
    run = Run(wl, golden, clock)
    passes, traced_s, plain_s = [], [], []
    spans = None
    wall0 = perf_counter()

    def one_pass() -> tuple[float, float]:
        """Raw and scaled operation time of one pass over the batch."""
        mark = clock.sample()
        raw = sum(run.op(i, op)[0] for i, op in enumerate(batch))
        return raw, raw * clock.scale(mark, clock.sample())

    while not passes or perf_counter() - wall0 < args.seconds:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            raw, scaled = one_pass()
        finally:
            tracer.uninstall()
        factor = scaled / raw
        passes.append({k: v * factor if k.endswith("_s") else v
                       for k, v in tracer.metrics().items()})
        traced_s.append(scaled)
        if spans is None:
            spans = tracer.spans
        plain_s.append(one_pass()[1])
    metrics = tracing.combine(passes, traced_s, plain_s)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent"],
        "ops": len(batch),
        "spans": spans,
    }))
    note = f"{len(batch)} ops per pass, {len(passes)} traced + {len(passes)} untraced passes"
    samples = {k: note for k in metrics}
    return run, metrics, samples, {}


def run_all(args) -> int:
    """Each workload in its own child process; prints one table."""
    import workloads

    table, results = [], {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            fail(f"workload {name} exited with code {child.returncode}")
        results[name] = json.loads(lines[-1])
        table += [line for line in lines[:-1] if line.startswith("# ")]
    print("\n".join(table))
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "leakbound" / "__init__.py").is_file():
        fail(f"no library at {SRC / 'leakbound'}; run from a leakbound checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl_class = workloads.WORKLOADS[args.workload]
    golden = None
    if args.seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text())[args.workload]

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = speed.SpeedClock()
    try:
        measure = traced if args.trace else end_to_end
        run, metrics, samples, raw = measure(args, wl_class, workdir, golden, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, wl_class)
    reference_ms = [r * 1000 for _, r in clock.samples]
    env["reference_ms"] = (f"median {statistics.median(reference_ms):.3f}, range "
                           f"{min(reference_ms):.3f}-{max(reference_ms):.3f}, "
                           f"{len(reference_ms)} samples, nominal {speed.NOMINAL_S * 1000}")
    record = {"environment": env, "metrics": metrics, "raw_metrics": raw,
              "samples": samples, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "reference_samples": clock.samples}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {args.workload}: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                              if k != "workload"))
    for name, value in metrics.items():
        unscaled = f"; raw {raw[name]:.6g}" if name in raw else ""
        print(f"# {args.workload} {name} = {value:.6g} {unit_of(name)}"
              f" ({samples[name]}{unscaled})")
    print(f"# {args.workload} fail_ratio = {run.failed}/{run.attempted}"
          f" = {run.failed / run.attempted:.6g} (failed / attempted operations)")
    for problem in run.problems:
        print(f"# {args.workload} FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
