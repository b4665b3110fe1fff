"""One benchmark process: start the program, then optionally call it once.

    python3 child.py START ARGV_JSON [--setup-only] [--trace-out FILE]

START is the parent's ``time.monotonic()`` just before it spawned this
process, so set-up time runs from interpreter start.  Set-up imports numpy,
scipy and breatherlab and loads, overrides and validates the config the
argv describes.  Unless --setup-only is given, the process then makes one
``breatherlab.cli.main(argv)`` call, untraced or, with --trace-out, under
the layer tracer, whose spans it writes to FILE.  The last line of stdout is
a JSON object with this process's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("start", type=float)
    parser.add_argument("argv", type=json.loads)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import numpy
    import scipy

    from breatherlab import cli, config

    sets = [args.argv[i + 1] for i, arg in enumerate(args.argv) if arg == "--set"]
    config.validate_config(config.apply_overrides(config.load_config(None), sets))
    out = {"setup_s": time.monotonic() - args.start}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    tracer = None
    if args.trace_out:
        import layers

        tracer = layers.Tracer()
    with tracer.installed() if tracer else contextlib.nullcontext():
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            rc = cli.main(args.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a crash is a failed call, reported like the exit code 1 an
            # uncaught exception would give the console script
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    out.update(returncode=rc, wall_s=wall, cpu_s=cpu,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.write(args.trace_out)
        out["layers"] = layers.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
