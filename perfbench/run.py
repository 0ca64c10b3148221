"""Benchmark of rumin-eta: seeded workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {verify,eval,spectrum} --seed N \
        --seconds S --trace {0,1}

Each pass runs in a fresh interpreter (perfbench/passrun.py) against the
checkout's own src/ tree; passes repeat, one at a time (a closed loop
with one client), until S seconds have been spent measuring.  Outputs
are checked against independent routes after the timed passes; on eval
an untimed defect probe (workloads.defect_probe) then runs once.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1, untraced and traced passes
alternate and it carries the per-layer metrics.  Lines before it are the
same numbers for people; a full record goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# BLAS threads are fixed, never above the cores this process may use
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# no pass starts after this many seconds, so a run ends well within 180 s
DEADLINE_S = 140.0
IMPORTTIME_REPEATS = 3

# layer metric -> (end-to-end metric it should move, workloads where it
# should, workloads where it should not).  Written down before measuring.
METRIC_MAP = [
    ("import.*", "setup_s", ["verify", "eval", "spectrum"], []),
    ("kernels.sym_eigenvalues.*, rep_oracle.hermitian_eigenvalues.*",
     "wall_s, peak_rss_mb", ["spectrum", "verify (wall_s)"], ["eval"]),
    ("rep_oracle.schrodinger_S/generic_S/trusted_window.self_s",
     "wall_s", ["spectrum", "verify (slightly)"], ["eval"]),
    ("kernels.sin_power_sum.*, specfun.polylog_circle.*, specfun.im_polylog_even*",
     "wall_s", ["eval", "verify (C5)"], ["spectrum"]),
    ("tilde_eta.tilde_eta.*, nilmanifold.eta_nil*, specfun.eta_hurw.*, specfun.riemann_zeta*",
     "wall_s", ["eval", "verify (a few percent)"], ["spectrum"]),
    ("tilde_eta.tilde_eta_direct.self_s, nilmanifold.eta_direct_sum.self_s",
     "wall_s", ["verify (C3, C9)"], ["eval", "spectrum"]),
    ("verification.C1_s .. C11_s", "wall_s", ["verify"], ["eval", "spectrum"]),
    ("cli.self_s, serialize.*", "wall_s", ["eval", "spectrum"], []),
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(plan_path, out_path, pass_id, traced, env, timeout):
    """Run one pass process; its result document, or raise RuntimeError."""
    cmd = [sys.executable, str(HERE / "passrun.py"), str(plan_path), str(out_path),
           str(pass_id), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass {pass_id} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def import_times(env):
    """Cumulative import time (s) per module of `import rumin_eta.cli`, -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rumin_eta.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        table = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
            if m:
                table[m.group(3)] = int(m.group(2)) * 1e-6
        runs.append(table)
    names = set().union(*runs)
    return {n: statistics.median(r[n] for r in runs if n in r) for n in names}


def output_digest(doc):
    h = hashlib.sha256()
    for call in doc["calls"]:
        for part in (str(call["code"]), call["stdout"], call["stderr"]):
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def highest_percentile(values):
    """(q, value): the highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    q = math.floor(100.0 * (n - 10) / n)
    return q, sorted(values)[max(1, math.ceil(q * n / 100.0)) - 1]


def environment(seed):
    """Versions, BLAS, hardware and commit of this run."""
    from importlib import import_module, metadata, util

    import numpy

    kernels = import_module("rumin_eta.kernels")

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "numba": "present" if util.find_spec("numba") else "absent",
        "kernels_backend": kernels.backend_name(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(untraced):
    return {
        "setup_s": statistics.median(d["setup_s"] for d in untraced),
        "wall_s": statistics.median(d["wall_s"] for d in untraced),
        "peak_rss_mb": statistics.median(d["peak_rss_kb"] * 1024 / 1e6 for d in untraced),
    }


_N_MS = re.compile(r"n(\d+)_ms$")
_CRITERION = re.compile(r"(C\d+)_s$")


def per_layer(names, traced, untraced, sums, imports, probe_misses):
    """Value of each per-layer metric name, and the names marked absent.

    sums holds tracing.summarize() of each traced pass.
    """
    import tracing

    absent_spans = set(traced[0]["absent"])
    values, absent = {}, []

    def med(f):
        return statistics.median(f(s) for s in sums)

    def spans_of(summary, span):
        return summary["names"].get(span, {"calls": 0, "self_s": 0.0, "durations": [],
                                           "attrs": []})

    def durations_ms(summary, span, attr=None):
        e = spans_of(summary, span)
        return [d * 1e3 for d, a in zip(e["durations"], e["attrs"]) if attr is None or a == attr]

    for name in names:
        if name == "probe.reference_misses":
            values[name] = probe_misses
            continue
        if name.startswith("import."):
            module = name[len("import."):-len("_s")]
            if module in imports:
                values[name] = imports[module]
            else:
                values[name] = 0.0
                absent.append(name)
            continue
        if name.startswith("layer."):
            layer = name.split(".")[1]
            values[name] = med(lambda s: s["layers"].get(layer, 0.0))
            continue
        if name.startswith("trace."):
            stat = name[len("trace."):]
            traced_wall = statistics.median(d["wall_s"] for d in traced)
            untraced_wall = statistics.median(d["wall_s"] for d in untraced)
            values[name] = {
                "wall_traced_s": traced_wall,
                "wall_untraced_s": untraced_wall,
                "overhead_ratio": traced_wall / untraced_wall - 1.0,
                "spans": med(lambda s: sum(e["calls"] for e in s["names"].values())),
                "pass_s": med(lambda s: s["pass_s"]),
            }[stat]
            continue
        span, stat = name.rsplit(".", 1)
        crit = _CRITERION.match(stat)
        size = _N_MS.match(stat)
        target = "verification.run_criterion" if crit else span
        if target in absent_spans:
            values[name] = 0.0
            absent.append(name)
            continue
        if crit:
            values[name] = med(lambda s: sum(spans_of(s, f"{span}.{crit.group(1)}")["durations"]))
        elif stat in ("calls", "self_s"):
            values[name] = med(lambda s: spans_of(s, span)[stat])
        elif stat in ("p50_ms", "p99_ms"):
            q = 50 if stat == "p50_ms" else 99
            values[name] = med(lambda s: tracing.percentile(durations_ms(s, span), q)
                               if spans_of(s, span)["calls"] else 0.0)
        elif size:
            n = int(size.group(1))
            values[name] = med(lambda s: statistics.median(durations_ms(s, span, n))
                               if durations_ms(s, span, n) else 0.0)
        elif stat == "terms":
            values[name] = med(lambda s: sum(spans_of(s, span)["attrs"]))
        elif stat == "flop":
            # eigenvalues only: Householder tridiagonalization, 4n^3/3
            values[name] = med(lambda s: sum(4.0 * n ** 3 / 3.0 for n in spans_of(s, span)["attrs"]))
        elif stat == "bytes":
            # the dense float64 matrix, read once
            values[name] = med(lambda s: sum(8.0 * n * n for n in spans_of(s, span)["attrs"]))
        elif stat == "hit_ratio":
            def ratio(d):
                c = d["cache"].get(span, {"hits": 0, "misses": 0})
                total = c["hits"] + c["misses"]
                return c["hits"] / total if total else 0.0
            values[name] = statistics.median(ratio(d) for d in traced)
        elif stat == "bytes_out":
            values[name] = statistics.median(
                sum(len(c["stdout"].encode()) + len(c["stderr"].encode()) for c in d["calls"])
                for d in traced)
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
    return values, absent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def measure(opts, plan_path, work, env):
    """Run passes, one at a time, until opts.seconds are spent: [(traced, doc)]."""
    started = time.perf_counter()
    passes = []
    while True:
        traced = bool(opts.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        timeout = max(10.0, DEADLINE_S + 30.0 - (t0 - started))
        doc = run_pass(plan_path, work / f"pass-{len(passes)}.json", len(passes),
                       traced, env, timeout)
        passes.append((traced, doc))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        need_traced = opts.trace and len(passes) < 2
        if (elapsed >= opts.seconds and not need_traced) or elapsed + last > DEADLINE_S:
            return passes


def judge_passes(workload, inputs, passes):
    """(attempted, failed, failure reasons, problems) over all passes.

    Every pass runs the same inputs, so each distinct output is judged
    once; passes whose outputs differ are a problem.
    """
    import rumin_eta

    import checks

    problems = []
    if Path(rumin_eta.__file__).resolve().parent != (SRC / "rumin_eta").resolve():
        problems.append(f"checks imported rumin_eta from {rumin_eta.__file__}")
    verdicts = {}
    attempted = failed = 0
    for i, (_, doc) in enumerate(passes):
        if Path(doc["src_root"]).resolve() != SRC.resolve():
            problems.append(f"pass {i} imported rumin_eta from {doc['src_root']}")
        key = output_digest(doc)
        if key not in verdicts:
            if verdicts:
                problems.append(f"pass {i} output differs from pass 0")
            verdicts[key] = checks.judge(workload, inputs, doc["calls"])
        attempted += verdicts[key].attempted
        failed += len(verdicts[key].failures)
    for v in verdicts.values():
        problems.extend(v.problems)
    return attempted, failed, next(iter(verdicts.values())).failures, problems


def run_probe(opts, work, env, pass_id):
    """(attempted, failures, problems) of the workload's untimed defect probe."""
    import checks

    probe = workloads.probe_plan(opts.workload, opts.seed, work / "probe-jobs.json")
    if probe is None:
        return 0, [], []
    plan_path = work / "probe-plan.json"
    plan_path.write_text(json.dumps({"calls": probe["calls"]}))
    doc = run_pass(plan_path, work / "probe.json", pass_id, False, env, 120.0)
    verdict = checks.judge(opts.workload, probe["inputs"], doc["calls"])
    return verdict.attempted, verdict.failures, [f"probe: {p}" for p in verdict.problems]


def main(argv=None):
    opts = parse_args(argv)
    if not (SRC / "rumin_eta" / "__init__.py").is_file():
        print(f"perfbench: no rumin_eta package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    env = child_env()

    work = WORK / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    work.mkdir(parents=True, exist_ok=True)
    plan = workloads.plan(opts.workload, opts.seed, work / "jobs.json")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({"calls": plan["calls"]}))

    # compile bytecode and warm the file cache once; not measured
    warm = subprocess.run([sys.executable, "-c", "import rumin_eta.cli"], env=env,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"perfbench: cannot import rumin_eta.cli:\n{warm.stderr[-2000:]}", file=sys.stderr)
        return 1
    try:
        passes = measure(opts, plan_path, work, env)
        probe_attempted, probe_failures, probe_problems = run_probe(opts, work, env, len(passes))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced = [d for t, d in passes if not t]
    traced = [d for t, d in passes if t]
    if opts.trace and not traced:
        print(f"perfbench: no traced pass fit within {DEADLINE_S:g} s", file=sys.stderr)
        return 1
    attempted, failed, failures, problems = judge_passes(opts.workload, plan["inputs"], passes)
    problems.extend(probe_problems)
    env_info = environment(opts.seed)
    info = workloads.WORKLOADS[opts.workload]
    lines = [
        f"# perfbench workload={opts.workload} seed={opts.seed} seconds={opts.seconds:g} "
        f"trace={opts.trace} passes={len(passes)}",
        "# env " + ", ".join(f"{k}={v}" for k, v in env_info.items()),
        f"# input {info['size']}",
        f"# why {info['why']}",
    ]
    if opts.trace:
        import tracing

        group = spec["per_layer"]
        sums = [tracing.summarize(d["spans"]) for d in traced]
        for i, s in enumerate(sums):
            total = sum(s["layers"].values())
            if abs(total - s["pass_s"]) > 1e-6 * max(1.0, s["pass_s"]):
                problems.append(f"traced pass {i}: layer self times sum to {total} s, "
                                f"pass took {s['pass_s']} s")
            lines.append(f"# traced pass {i}: layer self times sum to {total:.6f} s "
                         f"of a {s['pass_s']:.6f} s pass")
        values, absent = per_layer([m["name"] for m in group], traced, untraced, sums,
                                   import_times(env), len(probe_failures))
    else:
        group = spec["end_to_end"]
        values, absent = end_to_end(untraced), []

    metrics = {}
    for m in group:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        note = ""
        if name in absent:
            metrics[name]["absent"] = True
            note = " (absent)"
        elif name == "wall_s":
            hp = highest_percentile([d["wall_s"] for d in untraced])
            note = (f"  median of {len(untraced)} passes, tracing off; "
                    + (f"p{hp[0]} {hp[1]:.4f} s" if hp else
                       "no percentile has ten passes beyond it"))
        lines.append(f"{name:<48} {values[name]:>16.6g} {m['unit']}{note}")
    lines.append(f"{'fail_ratio':<48} {failed / attempted:>16.6g} "
                 f"({failed} of {attempted} operations)")
    lines.extend(f"# failed: {reason}" for reason in failures[:40])
    if len(failures) > 40:
        lines.append(f"# ... {len(failures) - 40} more failures in the results file")
    if probe_attempted:
        lines.append(f"{'known_defect_misses':<48} {len(probe_failures):>16d} "
                     f"(of {probe_attempted} probe points, judged once, untimed; "
                     "not in attempted or failed)")
        lines.extend(f"# known defect: {reason}" for reason in probe_failures[:40])
    lines.extend(f"# problem: {problem}" for problem in problems)

    result = {"environment": env_info, "workload": opts.workload, "input_size": info["size"],
              "why": info["why"], "metric_map": METRIC_MAP,
              "passes": [{"traced": t, "setup_s": d["setup_s"], "wall_s": d["wall_s"],
                          "peak_rss_kb": d["peak_rss_kb"]} for t, d in passes],
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": failures, "problems": problems,
              "probe": {"attempted": probe_attempted, "failures": probe_failures}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps(result, indent=1))

    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
