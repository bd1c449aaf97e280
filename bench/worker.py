"""One fresh process: set up actimetrics, then run one `correlate` call.

Run by the harness, never by hand:

    python3 bench/worker.py RESULT.json SRC CONFIG OUT JOBS TRACE RUN_ID [INPUT ...]

With no inputs it only sets up (imports `actimetrics.cli`, loads and
validates CONFIG) and reports when it was ready, so the harness can time
set-up. Otherwise it times `actimetrics.cli.main([... "correlate", ...])`
end to end and reports the exit code, any error text, peak RSS and, when
TRACE is 1, the spans and counters recorded around it.
"""
import sys
import time


def main(argv):
    result_path, src, config_path, out_dir, jobs, trace, run_id, *inputs = argv
    sys.path.insert(0, src)
    import actimetrics.cli as cli
    from actimetrics.config import load_config

    load_config(config_path)
    ready = time.monotonic()

    # imports only the harness needs come after `ready`, so set-up times
    # what a CLI call pays and nothing else
    import contextlib
    import io
    import json
    import resource
    import traceback

    result = {"ready_monotonic": ready}
    if inputs:
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer(run_id)
            tracer.install()
        cli_argv = ["--config", config_path, "--out", out_dir, "--jobs", jobs,
                    "correlate", *inputs]
        err = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(cli_argv)
                else:
                    with tracer.span("bundle"):
                        code = cli.main(cli_argv)
            except Exception:
                error = traceback.format_exc()
        bundle_s = time.perf_counter() - start
        if error is None and code != 0:
            error = err.getvalue().strip() or f"exit code {code}"
        result.update(
            exit_code=code,
            error=error,
            bundle_s=bundle_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
