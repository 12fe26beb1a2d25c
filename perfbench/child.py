"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition so that set-up is paid
afresh each time and ``peak_rss_mb`` belongs to the workload alone.  It
prints one JSON object as the last line of its standard output.

With ``--cli`` it instead runs the ``repro`` command line the workload
mirrors and prints what that command printed (the parity check).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        # The modules `repro evaluate` / `repro monitor` load before their
        # handler runs, so timed phases pay only the imports the CLI pays there.
        import repro.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _run_cli(workload, seed: int, smoke: bool) -> dict:
    from repro import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(workload.cli_argv(seed, smoke))
    return {"report": out.getvalue().rstrip("\n"), "exit": code}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-error", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--cli", action="store_true")
    args = parser.parse_args(argv)
    _import_program()

    import hostspeed
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.cli:
        print(json.dumps(_run_cli(workload, args.seed, args.smoke)))
        return 0
    tracer = tracing.NULL_TRACER
    clock = hostspeed.HostClock()
    if args.trace:
        # Per-layer metrics compare span times with the wall time, so
        # traced repetitions keep raw wall time and run no probes.
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        clock = hostspeed.RawClock()
    result = workloads.run_workload(
        workload, args.seed, args.smoke, tracer, clock, args.inject_error
    )
    if args.trace:
        result["layers"] = workloads.layer_metrics(result, tracer)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
