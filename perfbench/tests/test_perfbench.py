"""Tests of the benchmark's own logic: inputs, failure classifier, self times.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["eval", "spectrum", "verify"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.plan(workload, 7, tmp_path / "a.json")
    second = workloads.plan(workload, 7, tmp_path / "b.json")
    assert json.dumps(first["inputs"]) == json.dumps(second["inputs"])
    if workload == "eval":
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    else:
        assert first["calls"] == second["calls"]


def test_other_seed_gives_other_inputs(tmp_path):
    workloads.plan("eval", 7, tmp_path / "a.json")
    workloads.plan("eval", 8, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()
    assert workloads.spectrum_calls(7) != workloads.spectrum_calls(8)


def test_eval_inputs_have_the_documented_mix():
    jobs, lattices = workloads.eval_inputs(3)
    points = [s for job in jobs for s in checks.job_points(job)]
    assert len(jobs) == 80 and len(points) == 329 and len(lattices) == 4
    near = [s for s in points if s.imag == 0.0 and any(
        abs(s.real - t) <= 1e-6 for t in workloads.SPECIAL_TARGETS)]
    assert 0.08 < len(near) / len(points) < 0.25
    for job in jobs:
        if job["fn"] == "tilde":
            assert abs(job["a"]) <= workloads.TILDE_SHIFT_MAX
    assert max(s.real for s in points) <= workloads.RE_MAX
    nil_offsets = [abs(s.real - round(s.real)) for job in jobs if job["fn"] == "nil"
                   for s in checks.job_points(job) if s.imag == 0.0]
    assert not any(0.0 < d < 10.0 ** workloads.NIL_NEAR_MIN_EXP for d in nil_offsets)


def test_defect_probe_covers_what_the_timed_inputs_leave_out(tmp_path):
    jobs = workloads.defect_probe(3)
    assert jobs == workloads.defect_probe(3) and jobs != workloads.defect_probe(4)
    tilde = [job for job in jobs if job["fn"] == "tilde"]
    assert tilde and all(abs(job["a"]) > workloads.TILDE_SHIFT_MAX for job in tilde)
    nil = [s for job in jobs if job["fn"] == "nil" for s in checks.job_points(job)]
    assert any(s.real > workloads.RE_MAX for s in nil)
    assert any(0.0 < abs(s.real + 2 * round(-s.real / 2)) < 1e-12 for s in nil)
    assert workloads.probe_plan("verify", 3, tmp_path / "p.json") is None
    assert workloads.probe_plan("eval", 3, tmp_path / "p.json")["inputs"]["jobs"] == jobs


def _record(re, im, is_pole=False, residue=0.0):
    return {"s": {"re": -2.0, "im": 0.0}, "value": {"re": re, "im": im},
            "is_pole": is_pole, "residue": residue, "tail_bound": None}


def test_classifier_flags_null_value_without_pole():
    assert checks.classify(_record(None, None)) is not None
    assert checks.classify(_record(None, None, is_pole=True, residue=1.0)) is None
    assert checks.classify(_record(1.0, 0.0)) is None


def test_classifier_flags_reference_miss():
    ref = checks.Reference("value", 1.0 + 0.0j, 1e-8, "test route")
    assert checks.classify(_record(1.0 + 5e-9, 0.0), ref) is None
    assert "test route" in checks.classify(_record(1.0 + 1e-6, 0.0), ref)
    residue_ref = checks.Reference("residue", 2.0, 1e-6, "residue route")
    assert checks.classify(_record(None, None, True, 2.0), residue_ref) is None
    assert checks.classify(_record(None, None, True, 2.1), residue_ref) is not None


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] (holding g [2, 3]) and b [5, 9]
    spans = [
        ["bench.pass", 0.0, 10.0, -1, 0, None],
        ["specfun.a", 1.0, 4.0, 0, 0, None],
        ["kernels.g", 2.0, 3.0, 1, 0, None],
        ["specfun.b", 5.0, 9.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(spans)
    assert summary["pass_s"] == 10.0
    assert summary["layers"] == {"bench": 3.0, "specfun": 6.0, "kernels": 1.0}
    assert summary["names"]["specfun.a"]["calls"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["bench.pass", 0.0, 10.0, -1, 0, None],
        ["x.a", 1.0, 6.0, 0, 0, None],
        ["x.b", 4.0, 12.0, 0, 0, None],  # overlaps a and runs past the root
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([7.0], 99) == 7.0


def test_install_wraps_every_binding():
    # a fresh interpreter, so the wrapped functions do not leak into other tests
    script = textwrap.dedent(
        """
        import importlib, json, sys
        sys.path[:0] = [sys.argv[1], sys.argv[2]]
        import rumin_eta.cli
        from tracing import TARGETS, Tracer
        TARGETS["specfun"] = TARGETS["specfun"] + ("no_such_function",)
        t = Tracer(0)
        t.install()
        cli = importlib.import_module("rumin_eta.cli")
        ver = importlib.import_module("rumin_eta.verification")
        nil = importlib.import_module("rumin_eta.nilmanifold")
        wrapped = t.wrapped
        ok = {
            "cli.eta_nil": cli.eta_nil is wrapped["nilmanifold.eta_nil"],
            "verification.eta_nil": ver.eta_nil is wrapped["nilmanifold.eta_nil"],
            "nilmanifold.tilde_eta": nil.tilde_eta is wrapped["tilde_eta.tilde_eta"],
            "package.tilde_eta": rumin_eta.tilde_eta is wrapped["tilde_eta.tilde_eta"],
        }
        cli.tilde_eta(2.0, 0.3)
        cli.tilde_eta(2.0, 0.3)
        zeta = importlib.import_module("rumin_eta.tilde_eta").riemann_zeta
        print(json.dumps({"ok": ok, "absent": t.absent,
                          "info": list(zeta.cache_info()),
                          "names": sorted({s[0] for s in t.spans})}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, str(BENCH), str(SRC)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(out["ok"].values()), out["ok"]
    assert out["absent"] == ["specfun.no_such_function"]
    assert out["info"][0] > 0  # cache hits on the second call
    assert "tilde_eta.tilde_eta" in out["names"] and "specfun.riemann_zeta" in out["names"]
