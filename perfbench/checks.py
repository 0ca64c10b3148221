"""Correctness checks of a pass's outputs, against independent routes.

An operation is one output record of eval or special-values, one
spectrum call, or one verify criterion.  It fails if its call raised or
exited non-zero, if it emits a null value while ``is_pole`` is false, or
if it misses the independent reference for its workload.  The reference
routes ship in the package (direct sums, quadrature, closed forms); the
tolerances are those of the acceptance criteria named beside each.

Checks run in the benchmark's own process, after the timed passes.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass

import numpy as np

TILDE_DIRECT_TERMS = 200_000
NIL_DIRECT_CUTOFFS = (4000, 4000)
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Reference:
    """What one record must match: field "value" or "residue", within tol."""

    field: str
    expected: complex
    tol: float
    route: str


def _lib(name):
    return importlib.import_module(f"rumin_eta.{name}")


def _complex(part):
    if part is None or part["re"] is None or part["im"] is None:
        return None
    return complex(part["re"], part["im"])


def classify(record, ref=None):
    """Failure reason for one eval or special-values record, or None."""
    value = _complex(record.get("value"))
    if value is None and not record.get("is_pole"):
        return "null value while is_pole is false"
    if ref is None:
        return None
    got = value if ref.field == "value" else record.get("residue")
    if got is None:
        return f"{ref.route}: no {ref.field} to compare"
    err = abs(got - ref.expected)
    if not err <= ref.tol:
        return f"{ref.route}: error {err:.3e} > tolerance {ref.tol:.3e}"
    return None


def eval_reference(job, s, record):
    """The independent reference for one eval point, or None where none applies."""
    fn = job["fn"]
    if fn == "tilde":
        te = _lib("tilde_eta")
        a = job["a"]
        if record.get("is_pole"):
            l = -round(s.real) // 2
            expected = te.tilde_eta_residue(l, a)
            return Reference("residue", expected, 1e-6 * abs(expected), "tilde_eta_residue (C4)")
        if s == 0:
            expected = te.tilde_eta_at_zero(a)
            return Reference("value", expected, 1e-9 * max(1.0, abs(expected)),
                             "tilde_eta_at_zero (C1)")
        if s in (-1, -3):
            return Reference("value", 0.0, 1e-8, "zero at s = -1, -3 (C2)")
        if s.real > 1.0:
            expected, tail = te.tilde_eta_direct(s, a, TILDE_DIRECT_TERMS)
            return Reference("value", expected, 1e-8 * max(1.0, abs(expected)) + tail,
                             "tilde_eta_direct (C3)")
    elif fn == "nil" and s.real > 5.0:
        nm = _lib("nilmanifold")
        tag = nm.CaseTag.COMMUTATOR_TRIVIAL if job["c"] % job["r"] == 0 else nm.CaseTag.GENERIC
        data = nm.LatticeCharacterData(job["r"], job["c"], job["gamma_norm"], tag)
        expected, tail = nm.eta_direct_sum(s, data, *NIL_DIRECT_CUTOFFS)
        return Reference("value", expected, 1e-6 + tail, "eta_direct_sum (C9)")
    elif fn == "polylog-im" and s.imag == 0.0 and s.real == round(s.real) \
            and s.real >= 2 and round(s.real) % 2 == 0:
        l = (round(s.real) - 2) // 2
        expected = _lib("specfun").im_polylog_even_quad(l, job["a"])
        return Reference("value", expected, 1e-8, "im_polylog_even_quad (C5)")
    return None


def job_points(job):
    """The evaluation points of one job-file request, in output order."""
    if "l" in job:
        return [complex(2 * job["l"] + 2, 0.0)]
    return [complex(re, im) for re, im in job["s_list"]]


def _records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class Verdict:
    """Attempted operations, failures with reasons, and structural problems.

    A problem (malformed or missing output, a check that could not run)
    makes the pass's output unusable; a failure is an operation judged
    wrong by its check.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.problems = []

    def op(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")


def _judge_eval(inputs, calls, verdict):
    jobs = inputs["jobs"]
    expected = [(job, s) for job in jobs for s in job_points(job)]
    code, stdout = calls[0]["code"], calls[0]["stdout"]
    records = _records(stdout) if code == 0 else []
    if code == 0 and len(records) != len(expected):
        verdict.problems.append(f"eval printed {len(records)} records for {len(expected)} points")
    for k, (job, s) in enumerate(expected):
        label = f"eval {job['fn']} s=({s.real!r}, {s.imag!r})"
        if code != 0:
            verdict.op(label, f"eval exited {code}")
        elif k < len(records):
            record = records[k]
            verdict.op(label + (f" a={job['a']!r}" if "a" in job else ""),
                       classify(record, eval_reference(job, s, record)))
        else:
            verdict.op(label, "record missing")
    l_max = inputs["l_max"]
    for lat, call in zip(inputs["lattices"], calls[1:]):
        label = f"special-values r={lat['r']} c={lat['c']}"
        rows = _records(call["stdout"]) if call["code"] == 0 else []
        if call["code"] == 0 and len(rows) != 4 + l_max:
            verdict.problems.append(f"{label} printed {len(rows)} rows, expected {4 + l_max}")
        for i in range(4 + l_max):
            if call["code"] != 0:
                verdict.op(label, f"exited {call['code']}")
            elif i >= len(rows):
                verdict.op(label, "row missing")
            else:
                row = rows[i]
                reason = classify(row)
                predicted = row.get("sign_predicted", 0)
                value = _complex(row.get("value"))
                if reason is None and predicted and value is not None \
                        and int(math.copysign(1.0, value.real)) != predicted:
                    reason = f"sign {value.real:+.3e} against predicted {predicted:+d} (C11)"
                verdict.op(f"{label} s={row['s']['re']:g}", reason)


def _spectrum_tolerance(base, basis_size):
    # the C6/C8 rule: tolerances relax by (256/N)^2 below N = 256
    return base * ((256.0 / basis_size) ** 2 if basis_size < 256 else 1.0)


def spectrum_reason(spec, code, stdout, stderr):
    """Failure reason for one spectrum call, or None."""
    if code != 0:
        return f"exited {code}"
    p = spec["params"]
    n = p["basis_size"]
    lines = stdout.splitlines()[1:]
    if len(lines) != 3 * n:
        return f"{len(lines)} eigenvalues, expected {3 * n}"
    raw = [line.split(",", 1)[1] for line in lines]
    if "null" in raw:
        return "non-finite eigenvalue"
    eigs = np.array([float(v) for v in raw])
    if np.any(np.diff(eigs) < 0):
        return "eigenvalues not ascending"
    ro = _lib("rep_oracle")
    g = ro.GradedMetric(p["g33"], p["g44"], p["g55"])
    if "hbar" in p:
        mat = ro.schrodinger_S(ro.SchrodingerParams(hbar=p["hbar"]), g, n).entries
    else:
        mat = ro.generic_S(ro.GenericRepParams(p["lam"], p["mu"], p["nu"]), g, n).entries
    dim = mat.shape[0]
    fro = float(np.linalg.norm(mat))
    # a backward-stable solver moves the sum and the sum of squares of the
    # eigenvalues by far less than dim * eps * |S|_F (resp. |S|_F^2)
    trace_err = abs(float(eigs.sum()) - float(np.trace(mat).real))
    if trace_err > dim * EPS * fro:
        return f"sum of eigenvalues misses the trace by {trace_err:.3e}"
    fro_err = abs(float(np.dot(eigs, eigs)) - fro * fro)
    if fro_err > dim * EPS * fro * fro:
        return f"sum of squares misses |S|_F^2 by {fro_err:.3e}"
    try:
        sidecar = json.loads(stderr)
    except json.JSONDecodeError:
        return "diagnostics on stderr are not one JSON document"
    cmp_ = sidecar.get("closed_form_comparison")
    if cmp_ is not None and not cmp_["max_rel_error"] <= _spectrum_tolerance(1e-3, n):
        return f"closed_form_comparison {cmp_['max_rel_error']:.3e} over the C6 tolerance"
    sym = sidecar.get("pairing_symmetry")
    if sym is not None and not sym <= _spectrum_tolerance(1e-6, n):
        return f"pairing_symmetry {sym:.3e} over the C8 tolerance"
    if g.bg_proportional and ("hbar" in p) != (cmp_ is not None):
        return "closed_form_comparison missing from the sidecar"
    if g.bg_proportional and ("hbar" not in p) != (sym is not None):
        return "pairing_symmetry missing from the sidecar"
    return None


def _judge_spectrum(inputs, calls, verdict):
    for spec, call in zip(inputs["calls"], calls):
        label = f"spectrum {spec['kind']} N={spec['params']['basis_size']}"
        verdict.op(label, spectrum_reason(spec, call["code"], call["stdout"], call["stderr"]))


def _judge_verify(inputs, calls, verdict):
    call = calls[0]
    lines = _records(call["stdout"]) if call["code"] in (0, 1) else []
    records = [r for r in lines if "id" in r]
    expected = len(_lib("verification").SUITES["all"])
    if call["code"] in (0, 1) and len(records) != expected:
        verdict.problems.append(f"verify printed {len(records)} criteria, expected {expected}")
    for i in range(expected):
        if call["code"] not in (0, 1):
            verdict.op(f"criterion {i + 1}", f"verify exited {call['code']}")
        elif i >= len(records):
            verdict.op(f"criterion {i + 1}", "record missing")
        else:
            rec = records[i]
            verdict.op(rec["id"], None if rec["passed"] else
                       f"not passed (worst error/tolerance {rec['measured']:.3g})")


JUDGES = {"eval": _judge_eval, "spectrum": _judge_spectrum, "verify": _judge_verify}


def judge(workload, inputs, calls):
    """Verdict on the outputs of one pass of a workload."""
    verdict = Verdict()
    if len(calls) != _expected_calls(workload, inputs):
        verdict.problems.append(f"{len(calls)} call results, expected {_expected_calls(workload, inputs)}")
    JUDGES[workload](inputs, calls, verdict)
    return verdict


def _expected_calls(workload, inputs):
    if workload == "eval":
        return 1 + len(inputs["lattices"])
    if workload == "spectrum":
        return len(inputs["calls"])
    return 1
