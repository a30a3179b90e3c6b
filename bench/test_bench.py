"""Self-tests of the benchmark.  Run from the repository root with
``python -m pytest bench``; they need no install."""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")
_WORD = re.compile(rb"[A-Za-z_][A-Za-z0-9_-]*")


def _masked(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "duration_seconds"}


def test_generator_is_byte_stable():
    for build in (gen.scaling_config, gen.wide_config):
        assert gen.render(build(3)) == gen.render(build(3))
        assert gen.render(build(3)) != gen.render(build(4))
    code = (
        f"import sys, hashlib; sys.path[:0] = {[str(ROOT / 'src'), str(BENCH)]!r}; import gen; "
        "print(hashlib.sha256(gen.render(gen.wide_config(3))).hexdigest())"
    )
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout.strip()
    assert fresh == hashlib.sha256(gen.render(gen.wide_config(3))).hexdigest()


def test_seed_changes_coefficients_but_not_shape():
    # Every key, name and variable in the same order: only numbers differ
    # (and constant terms that fold into one, depending on their signs).
    for build in (gen.scaling_config, gen.wide_config):
        shapes = {
            tuple(_WORD.findall(_NUMBER.sub(b"#", gen.render(build(seed)))))
            for seed in (0, 1, 7)
        }
        assert len(shapes) == 1


def test_probe_is_fixed_work_without_curvcheck():
    # The probe scales every end-to-end time, so it must not depend on the
    # program under test, nor on anything that varies between runs.
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import probe; "
        "print(probe.work() == probe.work(), "
        "any(m.partition('.')[0] == 'curvcheck' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["True", "False"]
    for jobs in (1, 2):
        with run.Probe(jobs) as probe:
            times = [probe.time(), probe.time()]
        assert probe.proc.returncode == 0 and all(t > 0 for t in times)


@pytest.fixture
def small_scaling(monkeypatch):
    """Scaling workloads at a tenth of the kind-default sample counts."""
    monkeypatch.setattr(gen, "SCALING_MULTIPLE", 0.1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_report_equals_untraced_and_layers_add_up(tmp_path, small_scaling, jobs):
    config = tmp_path / "scaling.json"
    config.write_bytes(gen.render(gen.scaling_config(0)))
    result = tracer.traced_run(str(config), 5, jobs, 0.0, str(tmp_path / "spans.jsonl"),
                               str(tmp_path / "traced.json"))
    reports = [_masked(r) for r in result["reports"]]
    assert len(reports) == 3
    assert all(r == reports[0] for r in reports)
    assert reports[0]["seed"] == 5
    assert all(row["verdict"] == "pass" for row in reports[0]["checks"])
    metrics = result["metrics"]
    assert set(metrics) == set(tracer.layer_metric_names())
    # The layer self times split the traced checks_s at any --jobs: none is
    # negative, and what they leave (the tracer's own bookkeeping) is a small
    # non-negative share.
    checks_s, unattributed = metrics["trace.checks_s"], metrics["trace.unattributed_s"]
    layers = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert min(layers) >= 0.0
    assert 0.0 <= unattributed <= 0.25 * checks_s
    assert sum(layers) + unattributed == pytest.approx(checks_s)
    assert metrics["numcore.evaluate.calls"] > 0 and metrics["lie.expm.calls"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == metrics["trace.spans"]


def test_every_wrapper_is_restored(tmp_path):
    import scipy.linalg

    from curvcheck import rng

    modules = {k: m for k, m in sys.modules.items() if k.partition(".")[0] == "curvcheck"}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    expm, next_raw = scipy.linalg.expm, rng.SplitMix64.next_raw
    config = tmp_path / "verify.json"
    shutil.copy(ROOT / "fixtures" / "verify.json", config)
    probe = tracer.Tracer()
    with probe:
        assert scipy.linalg.expm is not expm
        from curvcheck import checks, config as config_module

        checks.run_suite(config_module.load_config(str(config)))
    assert probe.restored()
    assert scipy.linalg.expm is expm and rng.SplitMix64.next_raw is next_raw
    for key, module in modules.items():
        after = vars(module)
        assert all(after.get(name) is value for name, value in before[key].items()), key


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = end_to_end + per_layer
    assert all(_NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert per_layer == list(run.IMPORT_METRICS) + tracer.layer_metric_names()
    assert all(m["unit"] == tracer.metric_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize(
    ("workload", "seed", "trace"),
    [("verify-cli", 0, 0), ("verify-cli", 3, 1), ("scaling-jobs", 0, 0),
     ("scaling-jobs", 2, 1), ("wide-single", 0, 1)],
)
def test_smoke_run(capsys, small_scaling, workload, seed, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(expected)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
