"""Command line front end.

Evaluates the eta functions on points or grids, dumps operator spectra as
CSV, and runs the verification suites.  All numeric output uses fixed
17-significant-digit formatting so identical invocations produce
byte-identical documents; records are only emitted after every requested
computation has succeeded.

Exit codes: 0 success; 1 verification failure; 2 invalid usage or
parameters; 3 the oracle's eigenvalues failed their consistency checks.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import serialize, verification
from .nilmanifold import (
    CaseTag,
    LatticeCharacterData,
    eta_nil,
    eta_nil_special,
    sign_prediction,
)
from .rep_oracle import (
    GenericRepParams,
    GradedMetric,
    SchrodingerParams,
    SpectralPairingError,
    closed_form_error,
    hermitian_eigenvalues,
    oracle_window,
    pairing_symmetry,
    scalar_S,
)
from .specfun import eta_hurw, polylog_circle
from .tilde_eta import tilde_eta

def _finite_s(re, im=0.0) -> complex:
    if not (math.isfinite(re) and math.isfinite(im)):
        raise click.UsageError(f"s must be finite, got {complex(re, im)!r}")
    return complex(re, im)


def _parse_s(text: str) -> complex:
    parts = [p.strip() for p in str(text).split(",")]
    try:
        if len(parts) <= 2:
            return _finite_s(*map(float, parts))
    except ValueError:
        pass
    raise click.UsageError(f"cannot parse s value {text!r}; expected RE or RE,IM")


def _parse_s_list(text: str) -> list:
    # semicolons separate points, each RE[,IM]; a purely comma-separated
    # list is read as real points
    if ";" in text:
        entries = [e for e in (p.strip() for p in text.split(";")) if e]
    else:
        entries = [e for e in (p.strip() for p in text.split(",")) if e]
    if not entries:
        raise click.UsageError("empty --s-list")
    return [_parse_s(e) for e in entries]


def _json_s_value(raw) -> complex:
    if isinstance(raw, str):
        return _parse_s(raw)
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        return _finite_s(*map(float, parts))
    raise click.UsageError(f"cannot parse job s value {raw!r}")


def _lattice_data(r, c, gamma_norm) -> LatticeCharacterData:
    if r is None or c is None or gamma_norm is None:
        raise click.UsageError("--fn nil requires --r, --c and --gamma-norm")
    if r < 1:
        raise click.UsageError("--r must be a positive integer")
    tag = CaseTag.COMMUTATOR_TRIVIAL if c % r == 0 else CaseTag.GENERIC
    return LatticeCharacterData(r=r, c=c, gamma_norm=gamma_norm, case_tag=tag)


def _eval_one(fn, point, data, a):
    """One evaluation record; an error names the function and the point."""
    try:
        if fn in ("nil", "tilde"):
            result = eta_nil(point, data) if fn == "nil" else tilde_eta(point, a)
            fields = (result.s, result.value, result.is_pole, result.residue)
        elif fn == "hurw-eta":
            fields = (point, eta_hurw(point, a), False, 0.0)
        else:
            fields = (point, complex(polylog_circle(point, a).imag, 0.0), False, 0.0)
    except (ValueError, OverflowError) as exc:
        text = repr(point.real) if point.imag == 0.0 else f"{point.real!r},{point.imag!r}"
        raise click.UsageError(f"--fn {fn} at s = {text}: {exc}") from exc
    return serialize.eta_record(*fields, None)


def _eval_request(fn, points, r, c, gamma_norm, a, l):
    if fn == "polylog-im" and l is not None:
        if points:
            raise click.UsageError("--fn polylog-im takes either --l or --s, not both")
        if l < 0:
            raise click.UsageError("--l must be non-negative")
        points = [complex(2 * l + 2, 0.0)]
    if not points:
        raise click.UsageError("no evaluation points: pass --s, --s-list or --job-file")
    if fn != "polylog-im" and l is not None:
        raise click.UsageError("--l applies only to --fn polylog-im")
    if fn in ("tilde", "hurw-eta", "polylog-im") and (
        r is not None or c is not None or gamma_norm is not None
    ):
        raise click.UsageError("--r/--c/--gamma-norm apply only to --fn nil")
    if fn == "nil" and a is not None:
        raise click.UsageError("--a does not apply to --fn nil")
    if a is not None and not math.isfinite(a):
        raise click.UsageError(f"--a must be finite, got {a!r}")
    data = None
    if fn == "nil":
        data = _lattice_data(r, c, gamma_norm)
    elif a is None:
        raise click.UsageError(f"--fn {fn} requires --a")
    return [_eval_one(fn, p, data, a) for p in points]


def _error_boundary(command):
    """A SpectralPairingError exits 3; ValueErrors become usage errors (exit 2).

    The oracle raises SpectralPairingError where its eigenvalues fail their
    consistency checks, the one internal inconsistency the library detects.
    OverflowErrors, which the library raises where a value exceeds the
    double range, are usage errors too.  Raised inside the command callback,
    a UsageError keeps the subcommand's usage line.
    """

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except SpectralPairingError as exc:
            click.echo(f"internal inconsistency: {exc}", err=True)
            sys.exit(3)
        except (ValueError, OverflowError) as exc:
            raise click.UsageError(str(exc))

    return run


def _load_job_file(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read job file: {exc}")
    if not isinstance(doc, list):
        raise click.UsageError("job file must hold a JSON array of requests")
    jobs = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise click.UsageError(f"job {i}: not an object")
        command = entry.get("command", "eval")
        if command != "eval":
            raise click.UsageError(f"job {i}: unsupported command {command!r}")
        fn = entry.get("fn")
        if fn not in ("nil", "tilde", "hurw-eta", "polylog-im"):
            raise click.UsageError(f"job {i}: bad fn {fn!r}")
        if "s" in entry and "s_list" in entry:
            raise click.UsageError(f"job {i}: pass s or s_list, not both")
        points = []
        if "s" in entry:
            points = [_json_s_value(entry["s"])]
        elif "s_list" in entry:
            raw = entry["s_list"]
            if isinstance(raw, str):
                points = _parse_s_list(raw)
            elif isinstance(raw, list):
                points = [_json_s_value(v) for v in raw]
            else:
                raise click.UsageError(f"job {i}: bad s_list")
        known = {"command", "fn", "s", "s_list", "r", "c", "gamma_norm", "a", "l"}
        extra = sorted(set(entry) - known)
        if extra:
            raise click.UsageError(f"job {i}: unknown fields {extra}")
        params = {key: entry.get(key) for key in ("r", "c", "gamma_norm", "a", "l")}
        for key, value in params.items():
            if key in ("r", "c", "l"):
                kind, ok = "an integer", isinstance(value, int)
            else:
                kind = "a finite number"
                ok = isinstance(value, (int, float)) and abs(value) < math.inf
            if value is not None and (isinstance(value, bool) or not ok):
                raise click.UsageError(f"job {i}: {key} must be {kind}, got {value!r}")
        jobs.append(dict(fn=fn, points=points, **params))
    return jobs


@click.group()
def main():
    """Eta invariants of the middle-degree operator on (2,3,5) nilmanifolds.

    Evaluate the closed-form eta functions (eval, special-values), dump
    truncated representation spectra with diagnostics (spectrum), or run
    the acceptance suites (verify).
    """


@main.command("eval")
@click.option("--fn", "fn", required=True,
              type=click.Choice(["nil", "tilde", "hurw-eta", "polylog-im"]),
              help="Which function to evaluate.")
@click.option("--r", type=int, default=None, help="Lattice period r >= 1 (nil).")
@click.option("--c", type=int, default=None, help="Character offset c (nil).")
@click.option("--gamma-norm", type=float, default=None,
              help="Squared lattice norm of the center generator (nil).")
@click.option("--a", type=float, default=None,
              help="Shift parameter (tilde, hurw-eta, polylog-im).")
@click.option("--l", type=int, default=None,
              help="Evaluate Im Li_{2l+2} (polylog-im shorthand for --s 2l+2).")
@click.option("--s", "s_text", default=None, metavar="RE[,IM]",
              help="Single evaluation point.")
@click.option("--s-list", "s_list_text", default=None, metavar="LIST",
              help="Points separated by ';' (each RE[,IM]); commas alone list real points.")
@click.option("--job-file", type=click.Path(), default=None,
              help="JSON array of eval requests, run in order.")
@_error_boundary
def eval_cmd(fn, r, c, gamma_norm, a, l, s_text, s_list_text, job_file):
    """Evaluate an eta function; one NDJSON record per point, input order."""
    given = sum(x is not None for x in (s_text, s_list_text, job_file))
    if given > 1:
        raise click.UsageError("pass exactly one of --s, --s-list, --job-file")
    if job_file is not None:
        records = [
            rec for req in _load_job_file(job_file) for rec in _eval_request(**req)
        ]
    else:
        points = []
        if s_text is not None:
            points = [_parse_s(s_text)]
        elif s_list_text is not None:
            points = _parse_s_list(s_list_text)
        records = _eval_request(fn, points, r, c, gamma_norm, a, l)
    sys.stdout.write(serialize.render_ndjson(records))


@main.command("special-values")
@click.option("--r", type=int, required=True, help="Lattice period r >= 1.")
@click.option("--c", type=int, required=True, help="Character offset c.")
@click.option("--gamma-norm", type=float, required=True,
              help="Squared lattice norm of the center generator.")
@click.option("--l-max", type=int, required=True,
              help="Report values at s = -2l for l = 1..l_max.")
@_error_boundary
def special_values_cmd(r, c, gamma_norm, l_max):
    """Zero checks at s in {0,-1,-3,-5} plus the values at s = -2l."""
    if l_max < 0:
        raise click.UsageError("--l-max must be >= 0")
    data = _lattice_data(r, c, gamma_norm)
    records = []
    for row in eta_nil_special(data):
        records.append(
            serialize.eta_record(
                row["s"], row["value"], False, 0.0, None,
                abs_deviation=float(row["abs_deviation"]),
            )
        )
    for l in range(1, l_max + 1):
        result = eta_nil(complex(-2 * l, 0.0), data)
        predicted = (
            sign_prediction(l, data) if data.case_tag is CaseTag.GENERIC else 0
        )
        records.append(
            serialize.eta_record(
                result.s, result.value, result.is_pole, result.residue, None,
                sign_predicted=predicted,
            )
        )
    sys.stdout.write(serialize.render_ndjson(records))


@main.command("spectrum")
@click.option("--rep", required=True,
              type=click.Choice(["scalar", "schroedinger", "generic"]),
              help="Representation family.")
@click.option("--alpha", type=float, default=None, help="Scalar model parameter.")
@click.option("--beta", type=float, default=None, help="Scalar model parameter.")
@click.option("--hbar", type=float, default=None, help="Planck parameter (nonzero).")
@click.option("--lambda", "lam", type=float, default=None,
              help="Generic-family parameter.")
@click.option("--mu", type=float, default=None, help="Generic-family parameter.")
@click.option("--nu", type=float, default=None, help="Generic-family parameter.")
@click.option("--g33", type=float, default=1.0, show_default=True,
              help="Metric weight of the center direction.")
@click.option("--g44", type=float, default=1.0, show_default=True,
              help="Metric weight of the first top direction.")
@click.option("--g55", type=float, default=1.0, show_default=True,
              help="Metric weight of the second top direction.")
@click.option("--basis-size", type=int, default=256, show_default=True,
              help="Oscillator modes per block (ignored for scalar).")
@_error_boundary
def spectrum_cmd(rep, alpha, beta, hbar, lam, mu, nu, g33, g44, g55, basis_size):
    """Eigenvalues as CSV on stdout; JSON diagnostics on stderr."""
    g = GradedMetric(g33, g44, g55)
    scalar_opts = alpha is not None or beta is not None
    schro_opts = hbar is not None
    generic_opts = lam is not None or mu is not None or nu is not None
    if rep == "scalar":
        if schro_opts or generic_opts or not (alpha is not None and beta is not None):
            raise click.UsageError("--rep scalar takes exactly --alpha and --beta")
        eigs = hermitian_eigenvalues(scalar_S(alpha, beta, g))
        sidecar = {
            "rep": "scalar",
            "alpha": float(alpha),
            "beta": float(beta),
            "metric": {"g33": g.g33, "g44": g.g44, "g55": g.g55},
            "eigenvalue_count": int(eigs.size),
        }
    else:
        if rep == "schroedinger":
            if scalar_opts or generic_opts or hbar is None:
                raise click.UsageError("--rep schroedinger takes exactly --hbar")
            params = SchrodingerParams(hbar=hbar)
        else:
            if scalar_opts or schro_opts or lam is None or mu is None:
                raise click.UsageError(
                    "--rep generic takes --lambda, --mu and optionally --nu"
                )
            params = GenericRepParams(lam=lam, mu=mu, nu=0.0 if nu is None else nu)
        eigs, unit, kernel_eps, trusted = oracle_window(params, g, basis_size)
        trusted = trusted.tolist()
        sidecar = {
            "rep": rep,
            "metric": {"g33": g.g33, "g44": g.g44, "g55": g.g55},
            "basis_size": int(basis_size),
            "spectral_unit": float(unit),
            "kernel_eps": float(kernel_eps),
            "kernel_count": int(np.count_nonzero(np.abs(eigs) < kernel_eps)),
            "trusted_count": len(trusted),
            "trusted": trusted,
        }
        if rep == "schroedinger":
            sidecar["hbar"] = float(hbar)
            if g.bg_proportional:
                sidecar["closed_form_comparison"] = {
                    "count": len(trusted),
                    "max_rel_error": closed_form_error(trusted, params, g),
                }
        else:
            sidecar["lambda"] = float(lam)
            sidecar["mu"] = float(mu)
            sidecar["nu"] = float(params.nu)
            if g.bg_proportional and trusted:
                sidecar["pairing_symmetry"] = pairing_symmetry(trusted)
    sys.stdout.write(serialize.spectrum_csv(eigs))
    sys.stderr.write(serialize.render_json(sidecar) + "\n")


@main.command("verify")
@click.option("--suite", required=True,
              type=click.Choice(["specfun", "tilde-eta", "oracle", "nilmanifold", "all"]),
              help="Which acceptance suite to run.")
@click.option("--basis-size", type=int, default=256, show_default=True,
              help="Basis size for eigensolver-backed criteria (<256 degrades tolerances).")
@_error_boundary
def verify_cmd(suite, basis_size):
    """Run an acceptance suite; NDJSON per criterion plus a summary line."""
    if basis_size < 16:
        raise click.UsageError("--basis-size must be >= 16")
    records = verification.run_suite(suite, basis_size)
    n_passed = sum(1 for rec in records if rec["passed"])
    summary = {
        "suite": suite,
        "basis_size": int(basis_size),
        "n_passed": n_passed,
        "n_total": len(records),
        "passed": n_passed == len(records),
    }
    sys.stdout.write(serialize.render_ndjson(records))
    sys.stdout.write(serialize.render_json(summary) + "\n")
    if n_passed != len(records):
        sys.exit(1)


if __name__ == "__main__":
    main()
