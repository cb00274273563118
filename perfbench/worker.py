"""One fresh interpreter of a benchmark run.

    worker.py probe
    worker.py checks <spec.json> <out.json>
    worker.py cli <out.json> <trace 0|1> <peakalg arguments...>

Every mode first imports `peakalg` and notes the monotonic clock, which the
parent compares with the moment it spawned the process (set-up time).
`probe` prints that instant and exits.  `checks` runs `verify.CHECKS` in the
order the spec lists them and writes each verdict's failure locations.
`cli` runs one `peakalg` command line the way the console script does and
leaves its output on stdout.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import peakalg

READY = time.monotonic()
SOURCE = Path(__file__).resolve().parent.parent / "src"

if not Path(peakalg.__file__).resolve().is_relative_to(SOURCE):
    sys.exit(f"peakalg was imported from {peakalg.__file__}, not from {SOURCE}")

from tracer import Tracer  # noqa: E402  (after the timed import above)

# The keys that place a failure of a check; witnesses are left out because a
# new enumeration order may legitimately report a different first witness.
LOCATION_KEYS = ("kind", "flavor", "n", "stage")


def location(failure) -> list:
    if not isinstance(failure, dict):
        return [None, None, None, str(failure)]
    return [failure.get(key) for key in LOCATION_KEYS]


def run_checks(spec: dict, out_path: str) -> int:
    from peakalg.verify import CHECKS, Bounds

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    bounds = Bounds(n_max=spec["n_max"], seed=spec["seed"])
    ops = []
    start = time.monotonic()
    for name in spec["checks"]:
        kwargs = {"posets_per_n": spec["posets_per_n"]} if name == "extensions" else {}
        op = {"name": name, "error": None}
        began = time.monotonic()
        try:
            with tracer.span(f"verify.{name}") if tracer else nullcontext():
                result = CHECKS[name](bounds, **kwargs)
            op["passed"] = bool(result.passed)
            op["failures"] = [location(f) for f in result.data.get("failures", [])]
        except Exception:  # a raising check is a failed operation, not a crashed run
            op["error"] = traceback.format_exc(limit=4)
        op["seconds"] = time.monotonic() - began
        ops.append(op)
    end = time.monotonic()
    record = {"ready": READY, "start": start, "end": end, "ops": ops}
    if tracer:
        record["trace"] = tracer.summary()
        tracer.write_spans(spec["spans_path"])
    Path(out_path).write_text(json.dumps(record))
    return 0


def run_cli(out_path: str, trace: bool, argv: list[str]) -> int:
    tracer = Tracer() if trace else None
    from peakalg.cli import main

    if tracer:
        tracer.install()
    code = main(argv)
    sys.stdout.flush()
    record = {"ready": READY, "code": code}
    if tracer:
        record["trace"] = tracer.summary()
        tracer.write_spans(out_path + ".spans.jsonl")
    Path(out_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "probe":
        print(READY)
        sys.exit(0)
    if mode == "checks":
        sys.exit(run_checks(json.loads(Path(sys.argv[2]).read_text()), sys.argv[3]))
    if mode == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
    sys.exit(f"unknown mode {mode}")
