"""One timed pass in a fresh interpreter.

Usage: python3 passrun.py PLAN_JSON OUT_JSON PASS_ID TRACE

Times the import of rumin_eta.cli (what every CLI call pays), then runs
the plan's CLI calls in-process through click, capturing stdout and
stderr.  With TRACE=1 the library's public functions are wrapped first
and the spans are written out with the result.  Starting each pass in a
new interpreter keeps the lru_caches in specfun and tilde_eta cold, as
they are for a CLI user.
"""

import sys
import time

_t0 = time.perf_counter()
import rumin_eta.cli  # noqa: E402  (the import is the set-up being timed)

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_call(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="rumin-eta", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except rumin_eta.cli.click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # the pass must finish; the failure is counted per call
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def main():
    plan_path, out_path, pass_id, trace = sys.argv[1:5]
    with open(plan_path, encoding="utf-8") as fh:
        calls = json.load(fh)["calls"]
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(rumin_eta.__file__)))
    tracer = None
    if trace == "1":
        from tracing import CLI_SPAN, ROOT_SPAN, Tracer

        tracer = Tracer(int(pass_id))
        tracer.install()
    cli_main = rumin_eta.cli.main

    results = []
    start = time.perf_counter()
    if tracer is None:
        for argv in calls:
            results.append(run_call(cli_main, argv))
    else:
        with tracer.span(ROOT_SPAN):
            for argv in calls:
                with tracer.span(CLI_SPAN):
                    results.append(run_call(cli_main, argv))
    wall_s = time.perf_counter() - start

    doc = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "src_root": src_root,
        "calls": [{"code": c, "stdout": o, "stderr": e} for c, o, e in results],
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["absent"] = tracer.absent
        doc["cache"] = tracer.cache_stats()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
