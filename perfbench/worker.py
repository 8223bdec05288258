"""One workload process: imports primekit, runs the warm-up command, then
runs the commands it is sent, each through primekit.cli.run.

    python3 perfbench/worker.py --workload NAME --out FILE [--setup-only] [--trace FILE]

Protocol on stdin/stdout, one JSON object per line. The first reply is
{"setup_s": ...}. Each {"argv": [...]} gets {"code", "ms", "first_ms",
"bytes_out"}; {"finish": true} gets {"maxrss_kb", "layers"} and ends the
process. The command's stdout goes to FILE, which the caller reads back.
"""

import sys
import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import primekit.cli as cli  # noqa: E402

from workloads import WARMUP  # noqa: E402


class StampedFile(io.FileIO):
    """The file under the captured stdout: notes when the first bytes reach it."""

    first = None

    def write(self, data) -> int:
        if self.first is None:
            self.first = time.perf_counter()
        return super().write(data)


def execute(path: str, argv: list[str]) -> dict:
    """Run one command with stdout captured; time only the call and the flush.

    stdout is a text stream over a buffered file, as with `primekit ... > file`,
    so every output format reaches the file in blocks and the stamp costs one
    Python call per block, not per line.
    """
    raw = StampedFile(path, "w")
    capture = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    errors = io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    gc.collect()
    sys.stdout, sys.stderr = capture, errors
    try:
        began = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # a crash is reported as a failed command, not a dead worker
            code = None
            errors.write(traceback.format_exc())
        capture.flush()
        ended = time.perf_counter()
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    first = raw.first if raw.first is not None else ended
    bytes_out = raw.tell()
    capture.close()
    return {
        "code": code,
        "ms": (ended - began) * 1000.0,
        "first_ms": (min(first, ended) - began) * 1000.0,
        "bytes_out": bytes_out,
        "stderr": errors.getvalue()[-2000:] if code != 0 else "",
    }


def main() -> int:
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1]
    out = args[args.index("--out") + 1]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"primekit was imported from {cli.__file__}, not from {SRC}")
    warm = execute(out, WARMUP[workload])
    setup_s = time.perf_counter() - _STARTED
    proto = sys.stdout

    def reply(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    if warm["code"] != 0:
        reply({"error": f"warm-up {WARMUP[workload]} exited {warm['code']}: {warm['stderr']}"})
        return 1
    reply({"setup_s": setup_s})
    if "--setup-only" in args:
        return 0

    tracer = None
    if "--trace" in args:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for number, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request.get("finish"):
            layers = None
            if tracer is not None:
                tracer.write(args[args.index("--trace") + 1])
                layers = tracer.layers()
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "layers": layers})
            return 0
        if tracer is not None:
            tracer.command = number
        reply(execute(out, request["argv"]))
    return 1


if __name__ == "__main__":
    sys.exit(main())
