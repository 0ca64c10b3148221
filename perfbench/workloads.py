"""Seeded inputs for the three benchmark workloads.

Each workload is a list of CLI invocations (argument lists for
``rumin-eta``) plus the files they read.  The library sees only these
arguments and files; the seed never reaches it.  Draws use the standard
library's Mersenne Twister through ``random()`` alone, whose output is
stable across Python versions, so one seed gives byte-identical inputs
everywhere.

Parameters that set the cost of a call (polylog orders and shifts, the
real part of s) are drawn stratified: one draw per equal-width stratum.
That keeps the work of one pass nearly the same from seed to seed while
the values themselves change.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = {
    "verify": {
        "why": "the reproduce-the-paper command and the only workload that runs "
               "every criterion; mostly oracle eigensolves (C6, C8) and polylog "
               "sums (C5)",
        "size": "verify --suite all --basis-size 256: 11 criteria",
    },
    "eval": {
        "why": "closed form only (specfun, tilde_eta, nilmanifold) with repeated s "
               "values for the zeta caches and points at or near special values; "
               "bypasses the oracle; tilde shifts |a| <= 5/4 and Re s <= 6, where "
               "the closed form meets its references",
        "size": "one eval --job-file of 80 requests and 329 points, plus one "
                "special-values --l-max 3 call per lattice (4 lattices)",
    },
    "spectrum": {
        "why": "oracle only (matrix assembly and eigensolve) at N = 128, 256, 512; "
               "the N = 512 real embedding (75 MB) fits in L3; bypasses the "
               "closed form",
        "size": "9 spectrum calls: Schroedinger with proportional and "
                "non-proportional metric, and generic, at each N",
    },
}

# Magnitudes of the singular shifts +-lambda_n of the shifted series that
# lie below |a| = 4; tilde shifts keep at least _SINGULAR_GAP from them.
_SINGULAR = (math.sqrt(17.0) / 4.0, 2.25, math.sqrt(209.0) / 4.0)
_SINGULAR_GAP = 0.05

SPECIAL_TARGETS = (0, -1, -2, -3, -4, -5, -6)
SPECTRUM_SIZES = (128, 256, 512)

# The timed eval inputs stay where the closed form meets its reference
# checks, so no timed operation fails.  The rest of the documented domain,
# where it does not, is drawn by defect_probe() and judged once, untimed.
#   tilde_eta misses the C3 rule for |a| > 5/4 once |s| is large;
TILDE_SHIFT_MAX = 1.25
#   eta_nil misses eta_direct_sum by more than 1e-6 for Re s > 6 near |Im s| = 10;
RE_MAX = 6.0
#   eta_nil returns a null value, not flagged as a pole, within 1e-12 of s = -2l.
NIL_NEAR_MIN_EXP = -11.0
# the probe draws from a stream of its own, apart from the timed inputs
PROBE_SEED_OFFSET = 1_000_003


def _shuffle(rng, items):
    # Fisher-Yates on rng.random(); random.shuffle's algorithm is not
    # promised to stay fixed across versions.
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _strata(rng, n, lo, hi):
    """n draws, one uniform draw in each of n equal strata of [lo, hi), shuffled."""
    width = (hi - lo) / n
    return _shuffle(rng, [lo + (i + rng.random()) * width for i in range(n)])


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _exact_mix(rng, counts):
    """A shuffled list holding each key of counts exactly counts[key] times."""
    return _shuffle(rng, [key for key, n in counts.items() for _ in range(n)])


def _near_specials(rng, count, min_exp=-13.0, max_exp=-6.0, targets=SPECIAL_TARGETS,
                   exact_share=0.4):
    """Points on, or within 10**min_exp to 10**max_exp of, the targets
    (by default s = 0, -1, ..., -6).

    Targets cycle evenly; exact_share of the points sit exactly on their
    target and the offsets of the rest are log-uniform, one per stratum.
    """
    targets = _shuffle(rng, [targets[i % len(targets)] for i in range(count)])
    exact = round(exact_share * count)
    exponents = _strata(rng, count - exact, min_exp, max_exp)
    out = []
    for i, target in enumerate(targets):
        if i < exact:
            out.append([float(target), 0.0])
        else:
            offset = 10.0 ** exponents[i - exact]
            out.append([target + (offset if rng.random() < 0.5 else -offset), 0.0])
    return _shuffle(rng, out)


def _complex_points(rng, count, re_lo, re_hi, im_max):
    """count points, Re s stratified over [re_lo, re_hi); 30% real, the rest
    with |Im s| stratified over [0, im_max) and a random sign."""
    n_real = round(0.3 * count)
    ims = [0.0] * n_real + [v if rng.random() < 0.5 else -v
                            for v in _strata(rng, count - n_real, 0.0, im_max)]
    return [[re, im] for re, im in zip(_strata(rng, count, re_lo, re_hi), _shuffle(rng, ims))]


def _tilde_shift(value):
    # move a stratified draw off the singular set without changing its stratum much
    for lam in _SINGULAR:
        if abs(abs(value) - lam) < _SINGULAR_GAP:
            value = math.copysign(lam + _SINGULAR_GAP, value)
    if abs(value) < _SINGULAR_GAP:
        value = math.copysign(_SINGULAR_GAP, value if value else 1.0)
    return value


def _lattices(rng, count):
    out = []
    for _ in range(count):
        r = 3 + int(rng.random() * 6)
        c = 1 + int(rng.random() * (r - 1))
        out.append({"r": r, "c": c, "gamma_norm": _uniform(rng, 0.5, 2.0)})
    return out


def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def eval_inputs(seed):
    """(jobs, lattices) for the eval workload.

    jobs is the JSON array given to ``eval --job-file``; lattices are the
    (r, c, gamma_norm) triples, each also given one special-values call.
    For nil, tilde and hurw-eta, exactly 40% of points come from a shared
    pool of 24 s values, each reused five or six times across requests
    with other shifts or lattices, and 15% sit on or next to s in
    {0, -1, ..., -6}; the rest are fresh.  Re s stays at most RE_MAX,
    tilde shifts within TILDE_SHIFT_MAX, and nil points off the exact
    special values at least 10**NIL_NEAR_MIN_EXP away from them.
    """
    rng = random.Random(seed)
    lattices = _lattices(rng, 4)
    pool = _complex_points(rng, 24, -6.0, RE_MAX, 10.0)
    pool_order = _shuffle(rng, [i % len(pool) for i in range(128)])

    def points(count, re_lo, re_hi, near_min_exp=-13.0):
        n_pool, n_near = round(0.40 * count), round(0.15 * count)
        fresh = _complex_points(rng, count - n_pool - n_near, re_lo, re_hi, 10.0)
        near = _near_specials(rng, n_near, near_min_exp)
        mixed = []
        for kind in _exact_mix(rng, {"pool": n_pool, "near": n_near, "fresh": len(fresh)}):
            if kind == "pool":
                mixed.append(list(pool[pool_order.pop()]))
            else:
                mixed.append((near if kind == "near" else fresh).pop())
        return mixed

    jobs = []
    for i, s_list in enumerate(_chunks(points(80, -6.5, RE_MAX, NIL_NEAR_MIN_EXP), 4)):
        jobs.append({"fn": "nil", **lattices[i % len(lattices)], "s_list": s_list})
    shifts = _strata(rng, 30, -TILDE_SHIFT_MAX, TILDE_SHIFT_MAX)
    for a, s_list in zip(shifts, _chunks(points(120, -6.5, 4.5), 4)):
        jobs.append({"fn": "tilde", "a": _tilde_shift(a), "s_list": s_list})
    # fresh hurw-eta points fall on both sides of the reflection switch at Re s = -3/2
    for a, s_list in zip(_strata(rng, 24, 0.05, 0.95), _chunks(points(120, -5.0, 3.0), 5)):
        jobs.append({"fn": "hurw-eta", "a": a, "s_list": s_list})
    # Im Li on the unit circle: even orders through l, and Re s in (1, 3].
    # Shifts stay in [0.25, 0.75], where the truncation length varies
    # least; Re s is drawn below 1.9 (capped at 2M terms) and above 2.4
    # (short sums), where the cost of a point barely depends on Re s.
    for l, a in zip((0, 1, 2), _strata(rng, 3, 0.25, 0.75)):
        jobs.append({"fn": "polylog-im", "a": a, "l": l})
    re_values = _strata(rng, 3, 1.0 + 1e-3, 1.9) + _strata(rng, 3, 2.4, 3.0)
    for k, a in enumerate(_strata(rng, 3, 0.25, 0.75)):
        s_list = [[re_values[k], _uniform(rng, -3.0, 3.0)], [re_values[3 + k], 0.0]]
        jobs.append({"fn": "polylog-im", "a": a, "s_list": s_list})
    return _shuffle(rng, jobs), lattices


def defect_probe(seed):
    """Job-file requests for the part of the eval domain the timed inputs
    leave out, where the closed form misses its references at this commit.

    Six tilde requests with TILDE_SHIFT_MAX < |a| <= 4 and Re s in (1, 7.5],
    two nil requests with Re s in (RE_MAX, 7.5], and one nil request within
    1e-13 to 1e-12 of s = -2, -4, -6.  The probe is judged once, after the
    timed passes; its misses are reported apart from attempted and failed.
    """
    rng = random.Random(seed + PROBE_SEED_OFFSET)
    jobs = []
    magnitudes = _strata(rng, 6, TILDE_SHIFT_MAX, 4.0)
    for k, s_list in enumerate(_chunks(_complex_points(rng, 24, 1.0 + 1e-3, 7.5, 10.0), 4)):
        a = _tilde_shift(magnitudes[k] if k % 2 else -magnitudes[k])
        jobs.append({"fn": "tilde", "a": a, "s_list": s_list})
    lattices = _lattices(rng, 3)
    for lat, s_list in zip(lattices, _chunks(_complex_points(rng, 8, RE_MAX, 7.5, 10.0), 4)):
        jobs.append({"fn": "nil", **lat, "s_list": s_list})
    near = _near_specials(rng, 6, -13.0, -12.0, (-2, -4, -6), exact_share=0.0)
    jobs.append({"fn": "nil", **lattices[2], "s_list": near})
    return jobs


def spectrum_calls(seed):
    """Argument lists and parameters of the nine spectrum calls."""
    rng = random.Random(seed)
    calls = []
    for n in SPECTRUM_SIZES:
        for kind in ("schroedinger-proportional", "schroedinger-skewed", "generic"):
            g33 = _uniform(rng, 0.5, 2.0)
            g44 = _uniform(rng, 0.5, 2.0)
            g55 = g44 * _uniform(rng, 1.2, 2.0) if kind == "schroedinger-skewed" else g44
            if kind == "generic":
                angle = _uniform(rng, 0.0, 2.0 * math.pi)
                radius = _uniform(rng, 0.6, 1.6)
                params = {"lam": radius * math.cos(angle), "mu": radius * math.sin(angle),
                          "nu": _uniform(rng, -0.5, 0.5)}
                rep = ["--rep", "generic", "--lambda", repr(params["lam"]),
                       "--mu", repr(params["mu"]), "--nu", repr(params["nu"])]
            else:
                hbar = _uniform(rng, 0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
                params = {"hbar": hbar}
                rep = ["--rep", "schroedinger", "--hbar", repr(hbar)]
            params.update(g33=g33, g44=g44, g55=g55, basis_size=n)
            argv = ["spectrum", *rep, "--g33", repr(g33), "--g44", repr(g44),
                    "--g55", repr(g55), "--basis-size", str(n)]
            calls.append({"argv": argv, "kind": kind, "params": params})
    return calls


def plan(workload, seed, job_path):
    """The CLI calls of one pass and what the checks need to judge them.

    Writes the eval job file to job_path (the only input file the library reads).
    Returns {"calls": [argv, ...], "inputs": ...}.
    """
    if workload == "verify":
        return {"calls": [["verify", "--suite", "all", "--basis-size", "256"]],
                "inputs": {"basis_size": 256}}
    if workload == "eval":
        jobs, lattices = eval_inputs(seed)
        with open(job_path, "w", encoding="utf-8") as fh:
            # keys sorted and floats in repr form: the same seed gives the same bytes
            fh.write(json.dumps(jobs, sort_keys=True) + "\n")
        calls = [["eval", "--fn", "nil", "--job-file", str(job_path)]]
        for lat in lattices:
            calls.append(["special-values", "--r", str(lat["r"]), "--c", str(lat["c"]),
                          "--gamma-norm", repr(lat["gamma_norm"]), "--l-max", "3"])
        return {"calls": calls, "inputs": {"jobs": jobs, "lattices": lattices, "l_max": 3}}
    if workload == "spectrum":
        specs = spectrum_calls(seed)
        return {"calls": [c["argv"] for c in specs], "inputs": {"calls": specs}}
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def probe_plan(workload, seed, job_path):
    """The untimed defect probe of a workload, in the form of plan(), or None."""
    if workload != "eval":
        return None
    jobs = defect_probe(seed)
    with open(job_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(jobs, sort_keys=True) + "\n")
    return {"calls": [["eval", "--fn", "nil", "--job-file", str(job_path)]],
            "inputs": {"jobs": jobs, "lattices": [], "l_max": 0}}

