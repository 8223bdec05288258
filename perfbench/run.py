"""primekit's benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds one round of commands from the seed, measures set-up in fresh
processes, then runs whole rounds in a fresh worker process for about S
seconds, checking every command's output apart from primekit. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
--trace 0 gives the end-to-end metrics. --trace 1 runs every command twice,
in a plain worker and in one with tracing.py's wrappers, and gives the
per-layer metrics and the tracing overhead.

Repeated runs, for deriving bounds on a new machine:
    python3 perfbench/run.py --repeat 10 [--seed N] [--workload NAME ...] [--seconds S] [--trace 0|1]

runs each workload N times, seeds --seed to --seed + N - 1, prints each metric's median,
quartiles and spread, and writes the values to perfbench/out/repeat.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import CheckError, Checker  # noqa: E402
from workloads import BUILDERS, Command, round_commands, tail_percentile  # noqa: E402

SETUP_PROBES = 10
END_TO_END = {
    "setup_s": "s",
    "certified_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "first_output_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run: no program, or a worker died."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIMEKIT_")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Lane:
    """A worker process: a fresh interpreter that imports primekit and runs commands."""

    def __init__(self, workload: str, workdir: Path, trace: Path | None = None, setup_only: bool = False):
        workdir.mkdir(exist_ok=True)
        self.out = workdir / "stdout.txt"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--out", str(self.out)]
        if trace is not None:
            argv += ["--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=_child_env(), cwd=ROOT)
        try:
            self.setup_s = self._receive()["setup_s"]
        except BenchError:
            self.close()
            raise

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended with exit code {self.proc.wait()}")
        message = json.loads(line)
        if "error" in message:
            raise BenchError(message["error"])
        return message

    def _send(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def run(self, argv: list[str]) -> dict:
        return self._send({"argv": argv})

    def finish(self) -> dict:
        return self._send({"finish": True})

    def close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Tally:
    """What one lane's timed commands did."""

    def __init__(self):
        self.ms: list[float] = []
        self.first_ms: list[float] = []
        self.certified = 0
        self.failed = 0
        self.bytes_out = 0
        self.log_bytes = 0

    def certified_per_s(self) -> float:
        return self.certified / (sum(self.ms) / 1000.0)


def _log_size(command: Command) -> int:
    return command.log.stat().st_size if command.log is not None and command.log.exists() else 0


def _read_log(command: Command, offset: int) -> str:
    if command.log is None or not command.log.exists():
        return ""
    with command.log.open(encoding="utf-8") as fh:
        fh.seek(offset)
        return fh.read()


def run_command(lane: Lane, command: Command, checker: Checker, tally: Tally) -> bool:
    """Run, time and check one command; False when its output is wrong."""
    log_offset = _log_size(command)
    result = lane.run(command.argv)
    tally.ms.append(result["ms"])
    tally.first_ms.append(result["first_ms"])
    tally.bytes_out += result["bytes_out"]
    tally.log_bytes += _log_size(command) - log_offset
    if result["code"] != 0:
        tally.failed += 1
        print(f"failed: {' '.join(command.argv)} exited {result['code']}\n{result['stderr']}", file=sys.stderr)
        return True
    try:
        tally.certified += checker.check(command, lane.out.read_text(encoding="utf-8"),
                                         _read_log(command, log_offset))
    except CheckError as exc:
        print(f"wrong output: {' '.join(command.argv)}: {exc}", file=sys.stderr)
        return False
    return True


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(tally: Tally, setups: list[float], maxrss_kb: int, per_round: int) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "certified_per_s": tally.certified_per_s(),
        "op_ms_p50": statistics.median(tally.ms),
        "op_ms_tail": percentile(tally.ms, tail_percentile(per_round)),
        "first_output_ms": statistics.median(tally.first_ms),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def per_layer(layers: dict, traced: Tally, plain: Tally, rounds: int) -> dict:
    """Per-layer metrics of the traced worker, per round of the workload."""
    calls, ms, self_ms, counts = (layers[k] for k in ("calls", "ms", "self_ms", "counts"))
    grid_points = counts.get("grid_points", 0)
    accepted = counts.get("accepted", 0)
    per_round = {
        "cli.run.calls": (calls.get("cli.run", 0), "count"),
        "cli.self_ms": (self_ms.get("cli.run", 0.0), "ms"),
        "cli.bytes_out": (traced.bytes_out, "bytes"),
        "cli.log_bytes": (traced.log_bytes, "bytes"),
        "exclusion.primes_below.ms": (ms.get("exclusion.primes_below", 0.0), "ms"),
        "exclusion.primes_out": (counts.get("primes_out", 0), "count"),
        "oracle.is_prime.calls": (calls.get("oracle.is_prime", 0), "count"),
        "oracle.is_prime.ms": (ms.get("oracle.is_prime", 0.0), "ms"),
        **{
            f"oracle.is_prime.calls.{method}": (counts.get(f"is_prime.{method}", 0), "count")
            for method in ("sieve-lookup", "trial-division", "deterministic-spp", "probabilistic-spp")
        },
        "oracle.primes_leq_sqrt.ms": (ms.get("oracle.primes_leq_sqrt", 0.0), "ms"),
        "oracle.odd_prime_product.ms": (ms.get("oracle.odd_prime_product", 0.0), "ms"),
        "relations.enumerate_certified.self_ms": (self_ms.get("relations.enumerate_certified", 0.0), "ms"),
        "relations.grid_points": (grid_points, "count"),
        "relations.window_hits": (calls.get("relations.eval", 0), "count"),
        "relations.accepted": (accepted, "count"),
        "bigsearch.build_state.ms": (ms.get("bigsearch.build_state", 0.0), "ms"),
        "bigsearch.min_exponent.ms": (ms.get("bigsearch.min_exponent", 0.0), "ms"),
        "bigsearch.search.self_ms": (self_ms.get("bigsearch.search", 0.0), "ms"),
        "bigsearch.windows": (counts.get("windows", 0), "count"),
        "bigsearch.nonempty_windows": (counts.get("nonempty_windows", 0), "count"),
        "bigsearch.hits": (counts.get("hits", 0), "count"),
        "mersenne.scan_prime_zn.self_ms": (self_ms.get("mersenne.scan_prime_zn", 0.0), "ms"),
        "mersenne.compute_zn.calls": (calls.get("mersenne.compute_zn", 0), "count"),
        "mersenne.compute_zn.ms": (ms.get("mersenne.compute_zn", 0.0), "ms"),
        "mersenne.hits": (counts.get("zn_hits", 0), "count"),
    }
    metrics = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in per_round.items()}
    metrics["relations.accept_ratio"] = {"value": accepted / grid_points if grid_points else 0.0, "unit": "ratio"}
    metrics["trace.certified_per_s"] = {"value": traced.certified_per_s(), "unit": "1/s"}
    metrics["trace.untraced_certified_per_s"] = {"value": plain.certified_per_s(), "unit": "1/s"}
    metrics["trace.overhead_pct"] = {
        "value": (plain.certified_per_s() / traced.certified_per_s() - 1.0) * 100.0, "unit": "%"}
    return metrics


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "primekit" / "cli.py").is_file():
        raise BenchError(f"no primekit sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    lanes: dict[str, Lane] = {}
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = Lane(workload, workdir / "probe", setup_only=True)
            setups.append(probe.setup_s)
            probe.close()
        names = ("plain", "traced") if trace else ("plain",)
        commands = {name: round_commands(workload, seed, workdir / name) for name in names}
        checker = Checker(commands["plain"])
        for name in names:
            lanes[name] = Lane(workload, workdir / name,
                               trace=OUT / f"trace-{workload}.jsonl" if name == "traced" else None)
        setups.append(lanes["plain"].setup_s)
        tallies = {name: Tally() for name in names}
        correct = True
        rounds, round_s = 0, 0.0
        began = time.perf_counter()
        while rounds == 0 or time.perf_counter() - began + round_s <= seconds:
            round_began = time.perf_counter()
            for name in names:
                checker.start_round(commands[name])
            for i in range(len(commands["plain"])):
                for name in names:
                    correct &= run_command(lanes[name], commands[name][i], checker, tallies[name])
            rounds += 1
            round_s = time.perf_counter() - round_began
        finals = {name: lanes[name].finish() for name in names}
    finally:
        for lane in lanes.values():
            lane.close()
        shutil.rmtree(workdir, ignore_errors=True)

    plain = tallies["plain"]
    if trace:
        metrics = per_layer(finals["traced"]["layers"], tallies["traced"], plain, rounds)
    else:
        metrics = end_to_end(plain, setups, finals["plain"]["maxrss_kb"], len(commands["plain"]))
    return {
        "correct": correct,
        "attempted": sum(len(t.ms) for t in tallies.values()),
        "failed": sum(t.failed for t in tallies.values()),
        "metrics": metrics,
    }


def _revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def repeat(workloads: list[str], runs: int, first_seed: int, seconds: int, trace: int) -> None:
    """Run each workload `runs` times, one seed each from first_seed on, and summarize each metric.

    The seed loop is the outer one, so each workload's runs are spread over
    the whole session and a slow or fast stretch of the machine touches
    every workload alike rather than one workload's whole set.
    """
    OUT.mkdir(exist_ok=True)
    values: dict = {workload: {} for workload in workloads}
    walls: dict = {workload: [] for workload in workloads}
    for seed in range(first_seed, first_seed + runs):
        for workload in workloads:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            began = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            walls[workload].append(time.perf_counter() - began)
            if done.returncode != 0:
                raise BenchError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    machine = {"python": platform.python_version(), "nproc": os.cpu_count(), "seconds": seconds,
               "seeds": f"{first_seed}..{first_seed + runs - 1}", "revision": _revision()}
    (OUT / "repeat.json").write_text(
        json.dumps({"machine": machine, "values": values, "wall_s": walls}, indent=1) + "\n", encoding="utf-8")
    print(" ".join(f"{k}={v}" for k, v in machine.items()))
    for workload, series in walls.items():
        print(f"{workload}: wall time of one run, median {statistics.median(series):.1f} s, "
              f"longest {max(series):.1f} s")
    print(f"{'workload':16} {'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, median, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"{workload:16} {name:38} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed; with --repeat, the first seed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="run each workload this many times and summarize")
    args = parser.parse_args()
    try:
        if args.repeat:
            repeat(args.workload or list(BUILDERS), args.repeat, args.seed, args.seconds, args.trace)
            return 0
        if not args.workload or len(args.workload) != 1:
            parser.error("a single run needs exactly one --workload")
        print(json.dumps(run_once(args.workload[0], args.seed, args.seconds, bool(args.trace))))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
