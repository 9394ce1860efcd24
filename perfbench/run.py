"""Layered benchmark of hierplan on seeded taxi workloads.

Run from the repository root:

    python3 perfbench/run.py --workload taxi5-abstract --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics and writes its spans to
``perfbench/traces/<workload>.json.gz``. Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed output check, or a
violation from ``validate()``, makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _show(name: str, value, unit: str, note: str = "") -> None:
    shown = value if isinstance(value, int) else f"{value:.6g}"
    print(f"{name} = {shown} {unit}" + (f"  ({note})" if note else ""))


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "hierplan" / "__init__.py").is_file():
        print(f"error: no hierplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    from spans import Tracer
    from streams import WORKLOADS, layout_for, make_stream

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    layout = layout_for(workload.grid)
    tracer = Tracer(enabled=False)

    setup = layers.SetupResult(layout)
    base = layers.set_up(setup, tracer, trace).base
    stream = make_stream(base, layout, workload, args.seed)
    del base  # keep no reference to a build the next set-up replaces
    queries = layers.query_phase(
        setup, workload.setup_reps, stream, args.seconds, tracer, trace
    )
    h = setup.hierarchy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{h.base.num_states} base states, stream of {len(stream)}, "
          f"{workload.setup_reps} set-ups")
    if trace:
        replays = layers.replay_setup(h, layout, tracer)
        flat = layers.flat_reference(h, stream, tracer)
        metrics = layers.per_layer(setup, queries, replays, flat)
        out = HERE / "traces" / f"{workload.name}.json.gz"
        tracer.write(out, {"workload": workload.name, "seed": args.seed})
        print(f"{len(tracer.spans)} spans written to {out.relative_to(HERE.parent)}")
        printed = {}
    else:
        metrics, printed = layers.end_to_end(setup, queries, workload.tail_pct, peak_rss_mb)
    for name, (value, unit, *note) in {**metrics, **printed}.items():
        _show(name, value, unit, *note)
    for line in setup.violations[:20] + queries.errors:
        print(f"FAILED {line}")

    correct = queries.failed == 0 and not setup.violations
    print(json.dumps({
        "correct": correct,
        "attempted": queries.attempted,
        "failed": queries.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
