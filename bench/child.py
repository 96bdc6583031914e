"""One benchmark sample: a fresh interpreter making one steinalg CLI call.

    python3 bench/child.py RESULT.json MODE [CLI ARGS...]

MODE is ``setup`` (import ``steinalg.cli`` and stop), ``run`` (also call
the CLI) or ``trace`` (call it with the layers wrapped by ``layertrace``).
The CLI writes its report to this process's stdout, as it does for a user;
the timings go to RESULT.json.  ``imported_at`` is a CLOCK_MONOTONIC
stamp, so the parent can subtract the moment it spawned this process.

``run`` and ``trace`` also time ``reference.reference`` before the import,
where its memory stays below the CLI's peak, and after the CLI returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    result_path, mode, *cli_args = sys.argv[1:]
    if mode != "setup":
        import reference

        before = reference.timed()
    import steinalg.cli

    result = {"imported_at": time.monotonic(), "package": steinalg.__file__}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import layertrace

            tracer = layertrace.Tracer()
            layertrace.install(tracer)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            steinalg.cli.main(args=cli_args, prog_name="steinalg")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        sys.stdout.flush()
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = reference.timed()
        result["reference_wall_s"] = (before[0] + after[0]) / 2
        result["reference_cpu_s"] = (before[1] + after[1]) / 2
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
