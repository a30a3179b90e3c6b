"""The curvcheck benchmark: time to a verdict, and where it goes.

Usage, from the root of a source checkout (no install needed)::

    python3 bench/run.py --workload scaling-serial --seed 0 --seconds 10 --trace 0

``--trace 0`` runs ``python -m curvcheck check CFG --format json --out FILE``
as a user would, one fresh process at a time in a closed loop (with one
BLAS thread, see ``_child_env``), and reports the end-to-end medians, each
time scaled by the host's speed as ``bench/probe.py`` measures it (see
``measure_end_to_end``).  ``--trace 1`` reports the per-layer metrics of an
in-process traced run (``bench/tracer.py``) plus ``python -X importtime``.
Both first make one untimed warm-up invocation, whose report is the
reference every later report must equal (``duration_seconds`` masked).

The human-readable lines name each metric with its unit and sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count report rows: a row fails when its verdict is not ``pass``,
when its invocation crashed or exited non-zero, or when it breaks a
correctness gate (golden report at seed 0 for ``verify-cli``, equality with
the reference report).  The exit code is 0 when every row passed, 1 when
any failed, 2 when the checkout has no curvcheck source to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
VERIFY = ROOT / "fixtures" / "verify.json"
GOLDEN = ROOT / "fixtures" / "golden-report.json"

#: Timed ``check`` invocations and set-ups per run, at least (more while
#: time is left).
MIN_INVOCATIONS = 3
#: ``python -X importtime`` runs per traced run.
IMPORT_REPEATS = 3
#: A child process that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
#: End-to-end times are reported at the host speed at which
#: ``bench/probe.py``'s work takes this long: every time is scaled by this
#: over the mean of the probe's times just before and just after it.
REFERENCE_PROBE_S = 0.3

#: Why each exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = ("verify-cli", "scaling-serial", "scaling-jobs", "wide-single")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "checks_s": "s", "peak_rss_mb": "MB"}

IMPORT_METRICS = ("import.total_s", "import.scipy_s", "import.numpy_s", "import.curvcheck_s")

_SETUP_SNIPPET = (
    "import sys, time\n"
    "from curvcheck.config import load_config\n"
    "config = load_config(sys.argv[1])\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), config.digest)\n"
)


def _jobs(workload: str) -> int:
    return min(2, os.cpu_count() or 1) if workload == "scaling-jobs" else 1


def _child_env() -> dict:
    # One BLAS thread: curvcheck's matrices are 3x3, so OpenBLAS workers
    # never speed it up, but the main thread waits on them.  With one busy
    # process on the other core, verify-cli's checks_s doubled with the
    # default thread count and did not move with one thread.
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")


def _spawn(argv: list[str], stdout, stderr) -> subprocess.Popen:
    return subprocess.Popen(argv, env=_child_env(), cwd=ROOT, stdout=stdout, stderr=stderr)


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout``) and return its exit
    code and resource usage."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


# -- configs ---------------------------------------------------------------


def prepare_config(workload: str, seed: int, workdir: Path) -> Path:
    """Write the workload's config into ``workdir`` (``verify-cli`` uses the
    committed fixture) and return its path."""
    if workload == "verify-cli":
        return VERIFY
    import gen

    doc = gen.wide_config(seed) if workload == "wide-single" else gen.scaling_config(seed)
    path = workdir / f"{workload}-{seed}.json"
    path.write_bytes(gen.render(doc))
    return path


# -- correctness gates -----------------------------------------------------


def _header(report: dict) -> dict:
    """The report without its rows and its ``duration_seconds``."""
    return {k: v for k, v in report.items() if k not in ("checks", "duration_seconds")}


def _golden_row_ok(got: dict, want: dict) -> bool:
    for key in ("name", "kind", "samples", "tolerance", "verdict", "detail"):
        if got.get(key) != want[key]:
            return False
    if want["max_residual"] is None or got.get("max_residual") is None:
        return got.get("max_residual") is want["max_residual"]
    return math.isclose(got["max_residual"], want["max_residual"], rel_tol=1e-6, abs_tol=1e-12)


class Gates:
    """Counts report rows and the rows that fail a correctness gate."""

    def __init__(self, rows_per_report: int, digest: str, golden: dict | None):
        self.rows = rows_per_report
        self.digest = digest
        self.golden = golden
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def crashed(self, what: str) -> None:
        self.attempted += self.rows
        self.failed += self.rows
        self.notes.append(what)

    def report(self, report: dict, what: str, code: int = 0) -> None:
        """Gate one report (``code`` is its process's exit code); the first
        report seen becomes the reference."""
        if self.reference is None:
            self.reference = report
        rows = report.get("checks", [])
        self.attempted += max(self.rows, len(rows))
        if code != 0:
            self.notes.append(f"{what}: exit code {code}")
        header_ok = (
            code == 0
            and report.get("config_digest") == self.digest
            and len(rows) == self.rows
            and _header(report) == _header(self.reference)
        )
        if self.golden is not None:
            header_ok = header_ok and all(
                report.get(k) == self.golden[k]
                for k in ("verdict", "tool_version", "config_digest", "seed")
            )
        bad = self.rows - len(rows) if len(rows) < self.rows else 0
        for i, row in enumerate(rows):
            ok = header_ok and row.get("verdict") == "pass"
            ok = ok and i < len(self.reference["checks"]) and row == self.reference["checks"][i]
            if self.golden is not None:
                ok = ok and i < len(self.golden["checks"]) and _golden_row_ok(row, self.golden["checks"][i])
            if not ok:
                bad += 1
                self.notes.append(f"{what}: row {row.get('name')!r} failed a gate")
        self.failed += bad


# -- end-to-end measurements -------------------------------------------------


def time_setup(config: Path, digest: str) -> float | None:
    """Seconds from spawning an interpreter until ``load_config`` returns."""
    argv = [sys.executable, "-c", _SETUP_SNIPPET, str(config)]
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = _spawn(argv, subprocess.PIPE, subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    fields = out.decode().split()
    if proc.returncode != 0 or len(fields) != 2 or fields[1] != digest:
        return None
    return (int(fields[0]) - start) / 1e9


class Probe:
    """``bench/probe.py`` in a process of its own, timing its work on demand
    on as many threads as the workload's ``--jobs``."""

    def __init__(self, jobs: int):
        self.jobs = jobs

    def __enter__(self):
        argv = [sys.executable, str(BENCH / "probe.py"), "--jobs", str(self.jobs)]
        self.proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.time()  # untimed: imports and caches warm up
        return self

    def time(self) -> float:
        """Seconds per run of ``probe.work()``."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def invoke_check(config: Path, seed: int, jobs: int, workdir: Path):
    """One ``curvcheck check`` process.  Returns (wall seconds, peak RSS in
    MB, report dict or None, exit code)."""
    out = workdir / "report.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "curvcheck", "check", str(config), "--format", "json",
            "--out", str(out), "--seed", str(seed), "--jobs", str(jobs)]
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = _spawn(argv, subprocess.DEVNULL, err)
        code, usage = _wait(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return wall, usage.ru_maxrss / 1024.0, report, code


def run_invocation(gates: Gates, config: Path, seed: int, jobs: int, workdir: Path, what: str):
    """One gated invocation; its timings, or None when it wrote no report."""
    wall, rss, report, code = invoke_check(config, seed, jobs, workdir)
    if report is None:
        gates.crashed(f"{what}: exit code {code}, no report")
        return None
    gates.report(report, what, code)
    return wall, rss, report["duration_seconds"]


def measure_end_to_end(args, gates, config, digest, workdir, deadline, lines) -> dict:
    # Each iteration makes one check invocation and one set-up, and times the
    # probe after them, so every sample lies between two probe times.
    values = {name: [] for name in END_TO_END_UNITS}
    probes, brackets = [], []
    jobs = _jobs(args.workload)
    attempts, last = 0, 0.0
    with Probe(jobs) as probe:
        probes.append(probe.time())
        # Stop before an iteration that would end past the deadline.
        while attempts < MIN_INVOCATIONS or time.perf_counter() + last <= deadline:
            attempts += 1
            begin = time.perf_counter()
            result = run_invocation(gates, config, args.seed, jobs, workdir,
                                    f"invocation {attempts}")
            setup = time_setup(config, digest)
            probes.append(probe.time())
            last = time.perf_counter() - begin
            if setup is None:
                gates.crashed(f"set-up {attempts}: load_config in a fresh interpreter failed")
            if result is None or setup is None:
                continue
            brackets.append((probes[-2] + probes[-1]) / 2)
            for name, value in zip(END_TO_END_UNITS, (setup, result[0], result[2], result[1])):
                values[name].append(value)
    if not brackets:
        return {}
    # Other tenants of a shared host change its speed by tens of per cent,
    # from seconds to minutes at a time.  The probe's fixed work slows with
    # the host, so a time over the mean of the probe times on either side of
    # it measures curvcheck's cost, not the host's; REFERENCE_PROBE_S turns
    # that ratio back into seconds.
    lines.append(f"{'probe_s':<14} {statistics.median(probes):12.6f} s     median of "
                 f"{len(probes)}: " + " ".join(f"{v:.4f}" for v in probes))
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        samples = values[name]
        line = f"{name:<14} {{:12.6f}} {unit:<5} median of {len(samples)}"
        if unit == "s":
            scaled = [REFERENCE_PROBE_S * v / p for v, p in zip(samples, brackets)]
            line += (f" of {REFERENCE_PROBE_S} s x time / mean probe_s on either side: "
                     + " ".join(f"{v:.4f}" for v in scaled) + "; unscaled")
        else:
            scaled = samples
        value = statistics.median(scaled)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(line.format(value) + ": " + " ".join(f"{v:.4f}" for v in samples))
    return metrics


# -- per-layer measurements --------------------------------------------------


def import_times() -> dict[str, float] | None:
    """Import cost of curvcheck and of its two dependencies, from ``python
    -X importtime``.  ``import.total_s`` sums the top-level entries (the
    interpreter's own start-up imports included); a package's figure sums
    the cumulative times of its outermost entries, so it includes whatever
    else that package imported first."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import curvcheck"],
                          env=_child_env(), cwd=ROOT, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    sums = {"total": 0, "scipy": 0, "numpy": 0, "curvcheck": 0}
    ancestors: list[str] = []
    # Lines come in post-order (children first); reversed, each line's
    # ancestors are the packages of the open entries above its depth.
    for line in reversed(proc.stderr.decode().splitlines()):
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        package = name.strip().partition(".")[0]
        ancestors = ancestors[:depth]
        if depth == 0:
            sums["total"] += int(cumulative)
        if package in sums and package not in ancestors:
            sums[package] += int(cumulative)
        ancestors.append(package)
    return {name: sums[name[len("import."):-len("_s")]] / 1e6 for name in IMPORT_METRICS}


def measure_layers(args, gates, config, workdir, deadline, lines) -> dict:
    from tracer import metric_unit

    runs = [import_times() for _ in range(IMPORT_REPEATS)]
    if any(r is None for r in runs):
        gates.crashed("import: python -X importtime -c 'import curvcheck' failed")
    runs = [r for r in runs if r is not None]
    values = {key: statistics.median(r[key] for r in runs) for key in runs[0]} if runs else {}
    WORK.mkdir(exist_ok=True)
    argv = [sys.executable, str(BENCH / "tracer.py"), "--config", str(config),
            "--seed", str(args.seed), "--jobs", str(_jobs(args.workload)),
            "--seconds", str(max(0.0, deadline - time.perf_counter())),
            "--spans", str(WORK / f"spans-{args.workload}.jsonl"),
            "--report", str(workdir / "traced-report.json")]
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        proc = _spawn(argv, out, err)
        code, _ = _wait(proc, CHILD_TIMEOUT_S)
    try:
        result = json.loads((workdir / "stdout.txt").read_text().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        result = None
    if code != 0 or result is None:
        gates.crashed(f"traced run: exit code {code}")
        return {}
    for i, report in enumerate(result["reports"]):
        gates.report(report, f"traced run report {i}")
    if not result["restored"]:
        gates.crashed("traced run: a wrapped binding was not restored")
    values.update(result["metrics"])
    lines.append(f"traced repetitions: {result['repetitions']}")
    metrics = {}
    for name, value in values.items():
        unit = metric_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<48} {value:14.6f} {unit}")
    return metrics


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvcheck benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "curvcheck" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"bench: no curvcheck source and fixtures under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import curvcheck

    if Path(curvcheck.__file__).resolve().parent != SRC / "curvcheck":
        print(f"bench: imported curvcheck from {curvcheck.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        config = prepare_config(args.workload, args.seed, workdir)
        raw = config.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        rows = len(json.loads(raw)["checks"])
        golden = None
        if args.workload == "verify-cli" and args.seed == 0:
            golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        gates = Gates(rows, digest, golden)
        # The run's measurements end at the deadline (after at least the
        # minimum number of samples); the warm-up counts against it.
        deadline = time.perf_counter() + args.seconds
        lines = [f"workload {args.workload}  seed {args.seed}  jobs {_jobs(args.workload)}  "
                 f"checks {rows}  config_digest {digest}"]
        # Warm-up at --jobs 1: fills the disk cache and the bytecode cache, and
        # gives the serial reference report every later report must equal.
        run_invocation(gates, config, args.seed, 1, workdir, "warm-up")
        if args.trace:
            metrics = measure_layers(args, gates, config, workdir, deadline, lines)
        else:
            metrics = measure_end_to_end(args, gates, config, digest, workdir, deadline, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ratio = gates.failed / gates.attempted if gates.attempted else 1.0
    lines.append(f"failed_ratio   {ratio:12.6f} 1     {gates.failed} of {gates.attempted} rows")
    lines.extend(f"gate: {note}" for note in gates.notes[:20])
    print("\n".join(lines))
    correct = gates.failed == 0 and gates.attempted > 0
    print(json.dumps({"correct": correct, "attempted": gates.attempted,
                      "failed": gates.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
