"""Time-to-verdict benchmark for the liecheck command line.

Run from the root of a source checkout (the package need not be installed)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

``--trace 0`` is the end-to-end run.  One client runs ``python -m
liecheck.cli`` commands as separate processes in a closed loop (the next
command starts when the previous one has exited), never two at a time, all
on one CPU.  Every command's exit code and JSON verdict are checked against
a known answer.  A run makes a fixed number of passes over the workload's
command list, set from ``--seconds`` and the pass time measured when the
benchmark was written, so both sides of a comparison time the same work.

Reported times are wall times rescaled to a reference host speed (see
:class:`Calibrator`); the raw wall times are kept in the run record.  The
median and the tail percentile are Harrell-Davis estimates.

``--trace 1`` is the per-layer run.  It calls ``liecheck.cli.main`` in
process for each command: a pass with ``spans.Tracer`` installed, a pass
without, and a second traced pass, which gives the per-layer metrics.  Call
counters must repeat exactly across the two traced passes; tracing overhead
is the second traced pass's time minus the untraced pass's time.

Per-command rows go to standard output, a JSON record of the run (rows,
environment, CPU steal) to ``perfbench/results/``; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMAND_TIMEOUT_S = 120.0
# Mean time of one Calibrator.probe on the reference host (2-core VM, Intel
# Xeon, Python 3.11.7) in its usual state.  Fixed: changing it rescales every
# reported time.
REFERENCE_PROBE_S = 0.004
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 5

# Seconds one pass over each workload takes at the benchmark's commit (2-core
# VM, Python 3.11.7, numpy 2.4.6).  A run makes as many whole passes as fit
# in --seconds at that speed, and at least one.
REFERENCE_PASS_SECONDS = {
    "corpus": 23.0,
    "ladder": 25.0,
    "complex": 27.0,
    "harness": 4.0,
}

END_TO_END = (
    ("wall_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.tail", "ms"),
    ("verdict_ms.geomean", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.import.ms", "ms"),
    ("cli.import.numpy_ms", "ms"),
    ("process.spawn_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("specfile.parse.ms", "ms"),
    ("specfile.build.self_ms", "ms"),
    ("algebra.from_matrix_generators.self_ms", "ms"),
    ("algebra.validate.ms", "ms"),
    ("exact.matmul.calls", "count"),
    ("exact.matmul.ms", "ms"),
    ("exact.rref.calls", "count"),
    ("exact.rref.ms", "ms"),
    ("exact.membership.calls", "count"),
    ("exact.membership.ms", "ms"),
    ("exact.membership.hit_ratio", "ratio"),
    ("operators.check_admissible.calls", "count"),
    ("operators.check_admissible.ms", "ms"),
    ("exact.apply.calls", "count"),
    ("exact.apply.ms", "ms"),
    ("algebra.bracket.calls", "count"),
    ("algebra.bracket.ms", "ms"),
    ("torsion.torsion_form.calls", "count"),
    ("torsion.check_nijenhuis.calls", "count"),
    ("torsion.check_nijenhuis.self_ms", "ms"),
    ("torsion.check_nijenhuis_ad.self_ms", "ms"),
    ("torsion.pairs_checked", "count"),
    ("complexstruct.compute_z_spaces.calls", "count"),
    ("complexstruct.compute_z_spaces.ms", "ms"),
    ("complexstruct.check_integrable.self_ms", "ms"),
    ("complexstruct.split_diagnostics.ms", "ms"),
    ("exact.kernel_basis.calls", "count"),
    ("exact.kernel_basis.ms", "ms"),
    ("operators.construct.ms", "ms"),
    ("integrability.check_admissible_per_cmd", "count"),
    ("integrability.compute_z_spaces_per_cmd", "count"),
    ("harness.build_model.ms", "ms"),
    ("harness.relation_checks.ms", "ms"),
    ("harness.numerical_torsion.calls", "count"),
    ("harness.numerical_torsion.ms", "ms"),
    ("harness.bundle_map.calls", "count"),
    ("harness.fd_bracket.calls", "count"),
    ("trace.untraced_pass_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def read_steal_seconds(cpu):
    """CPU steal seconds from /proc/stat: all CPUs and CPU ``cpu``, or None."""
    wanted = ("cpu", f"cpu{cpu}")
    found = {}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in wanted:
                    found[fields[0]] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None
    return (found["cpu"], found[f"cpu{cpu}"]) if len(found) == 2 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# one process, timed from spawn to exit
# ---------------------------------------------------------------------------

class Spawner:
    """Runs commands one at a time; output goes to two reused files."""

    def __init__(self, root, env, workdir):
        self.root = root
        self.env = env
        self.out = open(os.path.join(workdir, "stdout"), "w+b")
        self.err = open(os.path.join(workdir, "stderr"), "w+b")

    def close(self):
        self.out.close()
        self.err.close()

    def run(self, argv):
        """Return (exit code or None on timeout, seconds, max RSS KiB, out, err)."""
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        fired = threading.Event()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=self.out,
                                stderr=self.err)

        def kill():
            fired.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, 9)

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        code = None if fired.is_set() else proc.returncode
        self.out.seek(0)
        self.err.seek(0)
        out = self.out.read().decode("utf-8", "replace")
        err = self.err.read().decode("utf-8", "replace")
        return code, elapsed, usage.ru_maxrss, out, err


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def harrell_davis(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted average of all order statistics.  With a few dozen
    samples from commands of very different sizes, a single order statistic
    jumps from one command to another between runs; this estimate moves
    smoothly and has a much smaller run-to-run spread.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))

    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3.0)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n):
    """Highest percentile with at least ten of n samples above it."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# host speed calibration
# ---------------------------------------------------------------------------

class Calibrator:
    """Rescales each timed command to a reference host speed.

    On a shared VM the same work runs at visibly different speeds from one
    second to the next: a fixed task alternates between about 19 and 31 ms
    on the machine this was written on, and stolen CPU time comes in bursts.
    A fixed pure-Python probe task (exact rational arithmetic and dict
    updates, like liecheck's kernel) runs on the same CPU right before and
    right after each command.  The command's time is multiplied by
    ``(REFERENCE_PROBE_S / mean probe time) ** ELASTICITY``: across seeds,
    log command time moved with log probe time at a pooled within-command
    slope of 0.48 (ladder) to 0.78 (complex), because start-up and memory
    traffic respond less to the host's state than the probe does.  The
    probe does not involve liecheck, so changes to the package move scaled
    times as they move raw ones.
    """

    ELASTICITY = 0.75
    BEFORE_S = 0.008   # probe time before each command
    AFTER_SHARE = 0.05  # probe time after it, as a share of its duration

    def __init__(self):
        self.samples = 0
        self.probe_s = 0.0

    @staticmethod
    def probe():
        started = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 600):
            acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i % 11 + 1)
            table[str(i % 97)] = table.get(str(i % 97), 0) + i
        return time.perf_counter() - started

    def _measure(self, seconds):
        """Mean probe time over about ``seconds`` of probing (at least one)."""
        times = [self.probe()]
        budget = time.perf_counter() + seconds
        while time.perf_counter() < budget:
            times.append(self.probe())
        self.samples += len(times)
        self.probe_s += sum(times)
        return statistics.fmean(times)

    def timed(self, run):
        """Call ``run()``, which returns a result whose second item is its
        duration; return the result and the duration at reference speed."""
        before = self._measure(self.BEFORE_S)
        result = run()
        after = self._measure(self.AFTER_SHARE * result[1])
        speed = REFERENCE_PROBE_S / ((before + after) / 2.0)
        return result, result[1] * speed ** self.ELASTICITY


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure_setup(spawner, python, calibrator):
    """Median seconds (raw, scaled) for a fresh interpreter to import liecheck.cli."""
    argv = [python, "-c", "import liecheck.cli"]
    spawner.run(argv)  # fills the bytecode and file caches
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        (code, elapsed, _, _, err), norm = calibrator.timed(lambda: spawner.run(argv))
        if code != 0:
            raise RuntimeError(f"import liecheck.cli failed: {err.strip()[-300:]}")
        raw.append(elapsed)
        scaled.append(norm)
    return statistics.median(raw), statistics.median(scaled)


def passes_for(workload, seconds):
    return max(1, int(seconds // REFERENCE_PASS_SECONDS[workload]))


def _summary(per_cmd, pass_walls):
    """The end-to-end metrics from per-command times (seconds)."""
    times = [t for v in per_cmd.values() for t in v]
    n = len(times)
    tail_pct = tail_percentile(n)
    tail_value = max(times) if n <= 10 else harrell_davis(times, tail_pct / 100.0)
    return {
        "wall_s": statistics.median(pass_walls),
        "verdict_ms.p50": harrell_davis(times, 0.5) * 1000.0,
        "verdict_ms.tail": tail_value * 1000.0,
        "verdict_ms.geomean": geomean([statistics.median(v) for v in per_cmd.values()]) * 1000.0,
    }, tail_pct, n


def timed_run(workload, cmds, seconds, seed, spawner, python):
    calibrator = Calibrator()
    raw_setup, setup_s = measure_setup(spawner, python, calibrator)
    prefix = [python, "-m", "liecheck.cli"]
    spawner.run(prefix + ["parse", cmds[0].argv[1]])  # warm-up, untimed
    rng = random.Random(seed ^ 0x5EED)
    raw_cmd = {c.cid: [] for c in cmds}
    scaled_cmd = {c.cid: [] for c in cmds}
    raw_walls, scaled_walls, failures, invocations = [], [], [], []
    peak_rss_kb = 0
    attempted = 0
    for index in range(passes_for(workload, seconds)):
        order = list(cmds)
        if index:
            rng.shuffle(order)
        raw_wall = scaled_wall = 0.0
        for cmd in order:
            argv = prefix + list(cmd.argv)
            (code, elapsed, rss_kb, out, err), scaled = calibrator.timed(
                lambda: spawner.run(argv))
            attempted += 1
            problem = verify(cmd, code, out, err)
            if problem:
                failures.append({"command": cmd.cid, "problem": problem})
            raw_wall += elapsed
            scaled_wall += scaled
            raw_cmd[cmd.cid].append(elapsed)
            scaled_cmd[cmd.cid].append(scaled)
            invocations.append((cmd.cid, elapsed, scaled, rss_kb))
            peak_rss_kb = max(peak_rss_kb, rss_kb)
        raw_walls.append(raw_wall)
        scaled_walls.append(scaled_wall)
    metrics, tail_pct, n = _summary(scaled_cmd, scaled_walls)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
    raw, _, _ = _summary(raw_cmd, raw_walls)
    raw["setup_s"] = raw_setup
    rows = []
    for cid, times in scaled_cmd.items():
        q1, q2, q3 = quartiles([t * 1000.0 for t in times])
        rows.append({"command": cid, "n": len(times), "median_ms": q2, "q1_ms": q1,
                     "q3_ms": q3, "raw_median_ms": statistics.median(raw_cmd[cid]) * 1000.0})
    detail = {
        "passes": len(raw_walls),
        "raw_metrics": raw,
        "commands_per_s": len(cmds) / metrics["wall_s"],
        "tail_percentile": tail_pct,
        "samples": n,
        "probes": calibrator.samples,
        "probe_mean_s": calibrator.probe_s / calibrator.samples,
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "invocations": invocations,
    }
    return metrics, rows, detail, attempted, len(failures)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _importtime(spawner, python):
    """Median cumulative import time (ms) of liecheck.cli and of numpy."""
    cli, numpy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, _, _, err = spawner.run([python, "-X", "importtime", "-c",
                                          "import liecheck.cli"])
        if code != 0:
            raise RuntimeError(f"import liecheck.cli failed: {err.strip()[-300:]}")
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            if parts[2] == "liecheck.cli":
                cli.append(int(parts[1]) / 1000.0)
            elif parts[2] == "numpy":
                numpy.append(int(parts[1]) / 1000.0)
    spawn = []
    for _ in range(SETUP_REPEATS):
        spawn.append(spawner.run([python, "-c", "pass"])[1] * 1000.0)
    return {
        "cli.import.ms": statistics.median(cli),
        "cli.import.numpy_ms": statistics.median(numpy) if numpy else 0.0,
        "process.spawn_ms": statistics.median(spawn),
    }


def _call_main(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception exits 1, as the interpreter would
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _in_process_pass(cmds, main, tracer=None):
    failures = []
    started = time.perf_counter()
    for index, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.command = index
        code, out, err = _call_main(main, cmd.argv)
        problem = verify(cmd, code, out, err)
        if problem:
            failures.append({"command": cmd.cid, "problem": problem})
    return (time.perf_counter() - started) * 1000.0, failures


def traced_run(cmds, spawner, python, root):
    import spans as spanlib

    layer = _importtime(spawner, python)
    sys.path.insert(0, os.path.join(root, "src"))
    import liecheck.cli

    def traced_pass():
        tracer = spanlib.Tracer()
        tracer.install()
        try:
            pass_ms, fails = _in_process_pass(cmds, liecheck.cli.main, tracer)
        finally:
            tracer.uninstall()
        failures.extend(fails)
        return pass_ms, tracer

    # The first pass in a process is slower (the heap grows to its peak), so
    # it serves only the counter comparison; overhead compares warm passes.
    failures = []
    _, first = traced_pass()
    untraced_ms, fails = _in_process_pass(cmds, liecheck.cli.main)
    failures.extend(fails)
    traced_ms, tracer = traced_pass()
    summary = spanlib.summarize(tracer.spans, tracer.counters)
    repeat = spanlib.summarize(first.spans, first.counters)
    counted = sorted(k for k in set(summary) | set(repeat)
                     if k.endswith(".calls") or k in ("torsion.pairs_checked",
                                                       "exact.membership.hits"))
    drift = {k: (summary.get(k, 0), repeat.get(k, 0)) for k in counted
             if summary.get(k, 0) != repeat.get(k, 0)}

    calls = summary.get("exact.membership.calls", 0)
    layer.update({name: summary.get(name, 0) for name, _ in PER_LAYER
                  if name not in layer})
    layer["exact.membership.hit_ratio"] = (
        summary.get("exact.membership.hits", 0) / calls if calls else 0.0)
    integ = [i for i, c in enumerate(cmds) if c.argv[0] == "integrability" and c.code != 2]
    adm = spanlib.per_command(tracer.spans, "operators.check_admissible")
    zsp = spanlib.per_command(tracer.spans, "complexstruct.compute_z_spaces")
    layer["integrability.check_admissible_per_cmd"] = (
        statistics.mean(adm[i] for i in integ) if integ else 0.0)
    layer["integrability.compute_z_spaces_per_cmd"] = (
        statistics.mean(zsp[i] for i in integ) if integ else 0.0)
    layer["trace.untraced_pass_ms"] = untraced_ms
    layer["trace.traced_pass_ms"] = traced_ms
    layer["trace.overhead_ms"] = traced_ms - untraced_ms

    stages = ("cli.main", "specfile.parse", "specfile.build",
              "operators.check_admissible", "torsion.check_nijenhuis",
              "torsion.check_nijenhuis_ad", "complexstruct.check_integrable",
              "harness.run_harness")
    by_cmd = spanlib.inclusive_by_command(tracer.spans, stages)
    rows = []
    for index, cmd in enumerate(cmds):
        row = {"command": cmd.cid}
        row.update({f"{s}.ms": round(by_cmd[index].get(s, 0.0), 3) for s in stages})
        if index in integ:
            row["check_admissible.calls"] = adm[index]
            row["compute_z_spaces.calls"] = zsp[index]
        rows.append(row)
    detail = {
        "counter_drift": drift,
        "spans": len(tracer.spans),
        "summary": summary,
        "failures": failures,
        "span_records": [[s[0], s[1], s[2], s[3], s[4]] for s in tracer.spans],
    }
    attempted = 3 * len(cmds)
    return layer, rows, detail, attempted, len(failures)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _print_rows(rows):
    for row in rows:
        cells = []
        for key, value in row.items():
            if key == "command":
                continue
            cells.append(f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}")
        print(f"  {row['command']:<58} " + " ".join(cells))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liecheck", "cli.py")):
        print("error: run from a liecheck source checkout (src/liecheck/cli.py missing)",
              file=sys.stderr)
        return 2
    env_info = environment(root)
    # One CPU for the benchmark and every process it starts: the commands and
    # the speed probes then sample the same CPU, and nothing runs in parallel.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env_info["pinned_cpu"] = cpu
    python = sys.executable
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    spawner = Spawner(root, env, workdir)
    try:
        cmds = WORKLOADS[args.workload](args.seed, os.path.relpath(workdir, root))
        steal_before, started = read_steal_seconds(cpu), time.monotonic()
        if args.trace:
            values, rows, detail, attempted, failed = traced_run(cmds, spawner, python, root)
            units = PER_LAYER
        else:
            values, rows, detail, attempted, failed = timed_run(
                args.workload, cmds, args.seconds, args.seed, spawner, python)
            units = END_TO_END
        steal_after, wall = read_steal_seconds(cpu), time.monotonic() - started
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if steal_before is not None and steal_after is not None:
        env_info["steal_s"] = steal_after[0] - steal_before[0]
        env_info["steal_share"] = env_info["steal_s"] / (wall * env_info["nproc"])
        env_info["pinned_cpu_steal_share"] = (steal_after[1] - steal_before[1]) / wall
    env_info["run_wall_s"] = wall
    drift = detail.get("counter_drift", {})
    correct = failed == 0 and not drift

    print(f"liecheck perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} commands={len(cmds)}")
    print("environment: " + json.dumps(env_info, sort_keys=True))
    print("per-command rows:")
    _print_rows(rows)
    for fail in detail["failures"]:
        print(f"FAILED {fail['command']}: {fail['problem']}")
    for key, (first, second) in drift.items():
        print(f"COUNTER DRIFT {key}: {first} then {second}")
    shown = {k: v for k, v in detail.items()
             if k not in ("summary", "span_records", "invocations")}
    print("detail: " + json.dumps(shown, sort_keys=True, default=str))

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env_info, "metrics": values, "rows": rows,
              "detail": {k: v for k, v in detail.items() if k != "span_records"}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(detail["span_records"], fh)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
