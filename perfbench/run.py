"""Benchmark of sl2magical, driven from outside the package.

    python3 perfbench/run.py --workload {verify,classify,slodowy,all} \
        --seed N --seconds S --trace {0,1}

Run from any directory; the package is imported from the ``src`` directory
next to this one.  One process with one thread is one client in a closed
loop: it issues each command only after the previous one returns.  The
workload's command list (workloads.py) is run in whole passes until the
time is spent; every output of every pass is checked (checks.py).  Each
pass starts from a cold package: before it, outside the timed span, every
sl2magical module is dropped and imported again, so no module-level cache
carries over from one pass to the next.

--trace 0 prints the end-to-end metrics: setup_s (median over fifteen
fresh interpreters, spread over the run, of importing every module,
loading the dataset and building the parser), and, as medians over
passes, wall_s, cpu_s, cmd_p50_ms and cmd_tail_ms (the highest percentile
with at least ten commands of a pass beyond it; the median when a pass has
too few), plus peak_rss_mb, the process's peak resident set up to the end
of its first pass (later passes re-import the package, and the allocator's
leftovers from that would tie the figure to the pass count, which is
itself set by the machine's speed).  A verify pass is one command,
crosscheck.run_all, so there both latencies equal the pass time.  Every
time of --trace 0 is rescaled to a fixed machine speed by calibrate.py:
within a pass by the kernel chunks run from a timer signal, and for a
set-up probe by a burst of chunks before and after it; the raw pass times
and speeds are printed beside the metrics.  --trace 1 alternates plain
and traced passes and prints the per-layer metrics of tracer.py: calls and
counts of one traced pass, self times as medians over traced passes, and
trace_overhead_s, the traced minus the plain median pass time.  The spans
of the last traced pass are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A command fails when it raises,
exits with the wrong code or prints output that fails its check.  correct
is false when any command fails other than by the known defect of the
classify commands in workloads.NO_RECORD_TOKENS: exit 0 where 3 is
expected.  Those count as failed but leave correct true.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer, import_package  # noqa: E402

WORKLOADS = ("verify", "classify", "slodowy")
SETUP_PROBES = 15
PROBE_BURST = 40  # kernel chunks before and after each set-up probe
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "cmd_p50_ms": "ms",
              "cmd_tail_ms": "ms", "peak_rss_mb": "MB"}
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBE = """
import importlib, pkgutil, sl2magical
for info in pkgutil.iter_modules(sl2magical.__path__):
    importlib.import_module("sl2magical." + info.name)
from sl2magical import cli, dataset
dataset.load_records()
cli.build_parser()
print("ready", flush=True)
"""


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MAGICAL_DATASET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter until it is ready, at the
    reference speed of the kernel bursts around it."""
    chunks = calibrate.burst(PROBE_BURST)
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, env=_child_env(), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed * calibrate.speed(chunks + calibrate.burst(PROBE_BURST))


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it;
    the median when n is too small for any."""
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100 * n)) >= 10:
            return pct
    return 50.0


# ---------------------------------------------------------------- commands


def cold_import(package: str) -> None:
    """Drop every module of the package and import them all again."""
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    gc.collect()  # free the dropped modules and their caches
    import_package(package)


def executor(workload: str) -> Tuple[Callable, Callable]:
    """(call, check) on the package as now imported: call(argv) runs one
    command, check(cmd, result) gives None or the reason it failed."""
    if workload == "verify":
        crosscheck = importlib.import_module(f"{PACKAGE}.crosscheck")
        return (lambda argv: crosscheck.run_all(int(argv[1])),
                lambda cmd, result: checks.check_verify(result))
    reference = checks.load_reference()
    checker = checks.check_classify if workload == "classify" else checks.check_slodowy

    def check(cmd, result):
        code, out = result
        return checker(cmd.argv, cmd.expect_exit, code, out, reference)

    return workloads.run_cli, check


def run_pass(cmds, workload: str, tracer: Optional[Tracer] = None,
             rescale: bool = False) -> Dict:
    """One closed-loop pass over the command list from a cold package,
    traced when a tracer is given and its times rescaled to the reference
    speed when rescale is set; checks run after timing."""
    cold_import(PACKAGE)
    call, check = executor(workload)
    speed = 1.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        if rescale:
            with calibrate.Sampler() as sampler:
                results, latencies, cpu, wall = _timed(cmds, call, sampler)
            speed = calibrate.speed(sampler.chunks or calibrate.burst(5))
        else:
            results, latencies, cpu, wall = _timed(cmds, call)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for cmd, result in zip(cmds, results):
        if isinstance(result, str):
            reason = f"raised {result}"
        else:
            try:
                reason = check(cmd, result)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures.append((cmd, reason))
    return {"wall": wall * speed, "cpu": cpu * speed,
            "latencies": sorted(t * speed for t in latencies), "failures": failures,
            "raw_wall": wall, "speed": speed}


def _timed(cmds, call, sampler: Optional[calibrate.Sampler] = None):
    """Results, latencies, CPU and wall time of the closed loop, less the
    time the sampler's handler took."""
    def busy():
        return sampler.busy if sampler is not None else 0.0

    results, latencies = [], []
    cpu0, wall0, busy0 = process_time(), perf_counter(), busy()
    for cmd in cmds:
        t0, b0 = perf_counter(), busy()
        try:
            result = call(cmd.argv)
        except Exception:
            result = traceback.format_exc(limit=2).strip().splitlines()[-1]  # a str marks a raise
        latencies.append(perf_counter() - t0 - (busy() - b0))
        results.append(result)
    spent = busy() - busy0
    wall, cpu = perf_counter() - wall0 - spent, process_time() - cpu0 - spent
    return results, latencies, cpu, wall


def unexpected_failures(workload: str, failures):
    """The failures other than the known no-record defect."""
    known = checks.exit_mismatch(0, 3)
    return [(cmd, why) for cmd, why in failures
            if not (workload == "classify" and cmd.argv[1] in workloads.NO_RECORD_TOKENS
                    and why == known)]


# ---------------------------------------------------------------- runs


def run_plain(cmds, workload: str, seconds: float):
    """Passes until the time is spent, with the set-up probes spread over
    the run so that they meet the same machine conditions as the passes."""
    passes, setup = [], []
    start = perf_counter()
    while True:
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * (perf_counter() - start) / seconds))
        setup += [setup_probe() for _ in range(due - len(setup))]
        passes.append(run_pass(cmds, workload, rescale=True))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if perf_counter() - start + passes[-1]["raw_wall"] > seconds:
            break
    setup += [setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    tail = tail_level(len(cmds))
    values = {
        "setup_s": median(setup),
        "wall_s": median(p["wall"] for p in passes),
        "cpu_s": median(p["cpu"] for p in passes),
        "cmd_p50_ms": median(1e3 * percentile(p["latencies"], 50) for p in passes),
        "cmd_tail_ms": median(1e3 * percentile(p["latencies"], tail) for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    info = {"pass_wall_s": [round(p["wall"], 4) for p in passes],
            "pass_raw_wall_s": [round(p["raw_wall"], 4) for p in passes],
            "pass_speed": [round(p["speed"], 4) for p in passes],
            "setup_probes_s": [round(t, 4) for t in setup],
            "tail_percentile": tail, "commands_per_pass": len(cmds)}
    return passes, metrics, info


def run_traced(cmds, workload: str, seconds: float, spans_path: Path):
    tracer = Tracer()
    plain, traced, counts, self_s = [], [], None, []
    start = perf_counter()
    while True:
        plain.append(run_pass(cmds, workload))
        traced.append(run_pass(cmds, workload, tracer))
        pass_counts = tracer.pass_counts()
        if counts is not None and pass_counts != counts:
            raise RuntimeError("layer counts differ between traced passes")
        counts = pass_counts
        self_s.append(tracer.pass_self_times())
        if perf_counter() - start + plain[-1]["wall"] + traced[-1]["wall"] > seconds:
            break
    spans_path.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start - origin, s.end - origin, s.parent]) + "\n")
    metrics = {}
    for name, value in counts.items():
        if name.endswith(".errors"):
            continue
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    for name in self_s[0]:
        metrics[name] = (median(d[name] for d in self_s), "s")
    overhead = median(p["wall"] for p in traced) - median(p["wall"] for p in plain)
    metrics["trace_overhead_s"] = (overhead, "s")
    errors = {k: v for k, v in counts.items() if k.endswith(".errors") and v}
    info = {"plain_wall_s": [round(p["wall"], 4) for p in plain],
            "traced_wall_s": [round(p["wall"], 4) for p in traced],
            "layer_errors": errors, "spans": str(spans_path.relative_to(ROOT))}
    return plain + traced, metrics, info


def machine_facts() -> Dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def run_workload(args) -> int:
    os.environ.pop("MAGICAL_DATASET", None)  # benchmark the shipped dataset
    cmds = workloads.generate(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        passes, metrics, info = run_traced(cmds, args.workload, args.seconds, spans_path)
    else:
        passes, metrics, info = run_plain(cmds, args.workload, args.seconds)

    failures = [f for p in passes for f in p["failures"]]
    unexpected = unexpected_failures(args.workload, failures)
    attempted = len(cmds) * len(passes)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes),
        "attempted": attempted, "failed": len(failures),
        "failures": sorted({f"{' '.join(c.argv)}: {why}" for c, why in failures})[:20],
        "machine": machine_facts(), **info,
    }
    print(json.dumps(summary))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:9s} {name:50s} {value:14.6f} {unit}")
    # Reported beside the metrics, not as one: it is 0 on most workloads.
    print(f"{args.workload:9s} {'error_rate':50s} {len(failures) / attempted:14.6f} "
          f"failed/attempted ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all_workloads(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sl2magical" / "__init__.py").is_file():
        print(f"error: no sl2magical package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
