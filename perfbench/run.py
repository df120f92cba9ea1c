"""cubary benchmark: seeded CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every operation is a separate process: the
`cubary` CLI (``python3 -m cubary`` with ``src`` on PYTHONPATH) or the
library-call driver in `driver.py`. One client runs them one after
another (a closed loop), feeding each pipeline stage the captured stdout
of the stage before, so at most one child is busy at a time.

With ``--trace 0`` the run repeats passes over the workload's operation
list, untraced, for S seconds and reports the end-to-end metrics. With
``--trace 1`` it repeats cycles of three passes over the same list (the
CLI as subprocesses, then in-process `cli.main(argv)` in a fresh child per
operation, then the traced replay in a fresh child per operation) and
reports the per-layer metrics. Every stdout is checked against the digest
recorded at the seed commit and, where one exists, against an exact
closed-form or evaluation check. The last line of stdout is the result as
one JSON object; the lines before it are the same metrics as a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 11
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "cmd_s.p50": "s",
    "cmd_s.p90": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# What work_per_s counts on each workload, by the name the metric has there.
WORK_NAME = {"poset_pipeline": "faces_per_s", "mine_search": "trials_per_s", "closed_form": "cmds_per_s"}

LAYER_SPANS = (
    "complex_core.build",
    "complex_core.validate",
    "complex_core.json_encode",
    "complex_core.json_decode",
    "subdivision.subdivide",
    "face_vectors",
    "transform.b_matrix",
    "transform.c_matrix",
    "transform.apply",
    "transform.iterate",
    "transform.limit",
    "polytools.sturm",
    "polytools.rational_roots",
    "polytools.shape",
    "corpus.draw",
    "verify.run_suites",
    "cli.emit",
)
PER_LAYER = {f"{s}.{k}": u for s in LAYER_SPANS for k, u in (("s", "s"), ("calls", "count"))}
PER_LAYER.update(
    {
        "complex_core.build.faces": "count",
        "complex_core.validate.faces": "count",
        "complex_core.json.bytes": "bytes",
        "subdivision.faces_out": "count",
        "subdivision.key_chars.mean": "chars",
        "transform.coeff_bits.max": "bits",
        "polytools.coeff_bits.max": "bits",
        "mine.evaluated_frac": "frac",
        "cli.overhead.s": "s",
        "cli.overhead.calls": "count",
        "trace.overhead.s": "s",
        "trace.glue.s": "s",
        "reconcile.wall_s": "s",
    }
)


@dataclass
class Run:
    """One finished child process."""

    wall: float
    out: bytes
    rc: int
    result: dict | None = None  # what a replay child wrote (main/trace modes)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _is_root(coeffs: list[Fraction], r: Fraction) -> bool:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc == 0


def predicted_vectors(f: list[int], rounds: int) -> dict:
    """f, hsc and hc after `rounds` subdivisions, by the closed forms alone."""
    # Imported here: main() puts the checkout's src on sys.path first.
    from cubary import FVector, f_of_subdivision, hc_from_hsc, hc_of_subdivision, hsc_from_f, hsc_of_subdivision

    fv = FVector(tuple(f))
    hsc = hsc_from_f(fv)
    hc = hc_from_hsc(hsc)
    for _ in range(rounds):
        fv, hsc, hc = f_of_subdivision(fv), hsc_of_subdivision(hsc), hc_of_subdivision(hc)
    return {"f": list(fv.entries), "hsc": list(hsc.entries), "hc": list(hc.entries)}


DEEP_F = [544, 1568, 1536, 512]  # f of the twice-subdivided boundary of the 4-cube


class Bench:
    def __init__(self, wl: workloads.Workload, work: Path, deadline: float, env: dict):
        self.wl = wl
        self.work = work
        self.deadline = deadline
        self.env = env
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)["sha256"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_kb = 0
        self.op_layers: dict[str, str] = {}  # op key -> its largest self times, last traced cycle
        self.expect, self.work_units = self._expectations()

    def _expectations(self) -> tuple[dict, dict]:
        """Closed-form vectors for every `vectors` op and each op's work count."""
        complexes: dict = {}  # op key -> (f of the generated complex, rounds so far)
        expect, units = {}, {}
        for op in self.wl.ops:
            if op.gen_f is not None:
                complexes[op.key] = (op.gen_f, 0)
            if op.rounds:
                f, n = complexes[op.stdin]
                complexes[op.key] = (f, n + op.rounds)
                units[op.key] = sum(predicted_vectors(f, n + op.rounds)["f"])
            if op.argv[0] == "vectors":
                expect[op.key] = predicted_vectors(*complexes[op.stdin])
                units[op.key] = sum(expect[op.key]["f"])
            if op.trials:
                units[op.key] = op.trials
            if self.wl.name == "closed_form":
                units[op.key] = 1
        return expect, units

    # -- children -----------------------------------------------------------

    def spawn(self, argv: list[str], stdin: bytes) -> Run:
        stdin_path = self.work / "stdin"
        stdin_path.write_bytes(stdin)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stdin_path, "rb") as fin, open(self.work / "stderr", "wb") as ferr:
            start = perf_counter()
            p = subprocess.Popen(argv, stdin=fin, stdout=subprocess.PIPE, stderr=ferr, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            try:
                out = p.stdout.read()
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
                p.stdout.close()
            wall = perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return Run(wall, out, p.returncode)

    def run_op(self, op: workloads.Op, stdin: bytes, mode: str) -> Run:
        if mode == "cli":
            return self.spawn(op.command(sys.executable), stdin)
        op_path, result_path = self.work / "op.json", self.work / "result.json"
        op_path.write_text(json.dumps({"kind": op.kind, "argv": op.argv}), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        run = self.spawn([sys.executable, "perfbench/replay.py", mode, str(op_path), str(result_path)], stdin)
        if result_path.exists():
            run.result = json.loads(result_path.read_text(encoding="utf-8"))
        elif run.rc == 0:
            run.rc = -1
        return run

    # -- correctness --------------------------------------------------------

    def check(self, op: workloads.Op, run: Run, mode: str) -> None:
        self.attempted += 1
        want = self.digests.get(op.key)
        if run.rc != 0:
            problem = f"exit code {run.rc}"
        elif want is None:
            problem = "no recorded digest"
        elif hashlib.sha256(run.out).hexdigest() != want:
            problem = "stdout differs from the seed's"
        else:
            problem = self._content_problem(op, run.out)
        if problem:
            self.failed += 1
            self.problems.append(f"{mode} {op.key}: {problem}")

    def _content_problem(self, op: workloads.Op, out: bytes) -> str | None:
        lines = [json.loads(line) for line in out.splitlines()]
        if op.key in self.expect:
            got = {k: lines[0][k] for k in ("f", "hsc", "hc")}
            if got != self.expect[op.key]:
                return f"vectors {got} differ from the closed form {self.expect[op.key]}"
            if op.key == "deep.vectors" and got["f"] != DEEP_F:
                return f"f = {got['f']}, not the pinned {DEEP_F}"
        elif op.argv[0] == "verify" and lines[0]["ok"] is not True:
            return "verify reported a failed check"
        elif op.argv[0] == "mine" and lines[-1]["trials"] != op.trials:
            return "mine summary reports the wrong trial count"
        elif op.kind == "driver":
            for line in lines:
                coeffs = [Fraction(c) for c in line["poly"]]
                for r in line["roots"]:
                    if not _is_root(coeffs, Fraction(r)):
                        return f"{r} is not a root of {line['label']} at n={line['n']}"
        return None

    def run_pass(self, mode: str) -> tuple[float, list[Run]]:
        outs: dict[str, bytes] = {}
        runs = []
        start = perf_counter()
        for op in self.wl.ops:
            run = self.run_op(op, outs.get(op.stdin, b""), mode)
            outs[op.key] = run.out
            self.check(op, run, mode)
            runs.append(run)
        return perf_counter() - start, runs

    def work_per_s(self, runs: list[Run]) -> float:
        timed = [(self.work_units[op.key], run.wall) for op, run in zip(self.wl.ops, runs) if op.key in self.work_units]
        return sum(u for u, _ in timed) / sum(w for _, w in timed)

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self, seconds: float, setup_s: float) -> tuple[dict, list[str]]:
        walls, rates = [], []
        per_op: dict[str, list[float]] = {}
        start = time.monotonic()
        while True:
            wall, runs = self.run_pass("cli")
            walls.append(wall)
            rates.append(self.work_per_s(runs))
            for op, r in zip(self.wl.ops, runs):
                per_op.setdefault(op.key, []).append(r.wall)
            if time.monotonic() - start + max(walls) > seconds:
                break
        # Latency percentiles over the operations of a pass, each operation
        # at its median over the passes: a pass mixes commands that differ
        # tenfold in length, and a percentile of the pooled samples falls on
        # the edge between two commands, where a few slow samples move it.
        op_lat = [statistics.median(ts) for ts in per_op.values()]
        metrics = {
            "wall_s": statistics.median(walls),
            "cmd_s.p50": percentile(op_lat, 50),
            "cmd_s.p90": percentile(op_lat, 90),
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": self.peak_kb / 1024,
            "setup_s": setup_s,
        }
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
        lat = [t for ts in per_op.values() for t in ts]
        tail = 100 * (1 - 10 / len(lat))
        notes = [
            f"wall_s over {len(walls)} passes: q1 {q[0]:.4f}  median {q[1]:.4f}  q3 {q[2]:.4f}",
            f"cmd_s over the {len(op_lat)} operations of a pass, each at its median of {len(walls)}; "
            f"pooled, {len(lat)} processes give p50 {percentile(lat, 50):.4f} s, p90 {percentile(lat, 90):.4f} s, "
            + (f"and p{tail:.0f} {percentile(lat, tail):.4f} s, the highest with 10 beyond it" if tail > 0
               else "and too few for a percentile with 10 beyond it"),
            f"work_per_s is {WORK_NAME[self.wl.name]} on {self.wl.name}",
        ]
        notes += [f"median {key}: {statistics.median(ts):.4f} s" for key, ts in per_op.items()]
        return metrics, notes

    def per_layer(self, seconds: float) -> tuple[dict, list[str]]:
        cycles, cycle_walls = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            cycles.append(self._cycle())
            cycle_walls.append(time.monotonic() - t0)
            if time.monotonic() - start + max(cycle_walls) > seconds:
                break
        metrics = {name: statistics.median(c[name] for c in cycles) for name in PER_LAYER}
        notes = [f"per-layer figures are medians over {len(cycles)} traced cycles; self times per operation:"]
        return metrics, notes + [f"  {key}: {top}" for key, top in self.op_layers.items()]

    def _cycle(self) -> dict:
        wall, plain = self.run_pass("cli")
        _, mains = self.run_pass("main")
        _, traced = self.run_pass("trace")
        m: dict = dict.fromkeys(PER_LAYER, 0)
        counts: dict = {}
        total_traced = glue = 0.0
        for op, run in zip(self.wl.ops, traced):
            if not run.result:
                continue
            spans = run.result["spans"]
            root = spans[0]
            total_traced += root[2] - root[1]
            seconds, calls, own = self_times(spans)
            glue += own
            top = sorted(seconds.items(), key=lambda kv: -kv[1])[:3]
            self.op_layers[op.key] = "  ".join(f"{name} {s:.4f} s" for name, s in top)
            for name, s in seconds.items():
                m[f"{name}.s"] += s
                m[f"{name}.calls"] += calls[name]
            for name, v in run.result["counts"].items():
                counts[name] = counts.get(name, 0) + v
            for name, v in run.result["maxima"].items():
                m[name] = max(m[name], v)
        main_s = sum(r.result["s"] for r in mains if r.result)
        for name in ("complex_core.build.faces", "complex_core.validate.faces", "complex_core.json.bytes",
                     "subdivision.faces_out"):
            m[name] = counts.get(name, 0)
        if counts.get("subdivision.faces_out"):
            m["subdivision.key_chars.mean"] = counts["subdivision.key_chars"] / counts["subdivision.faces_out"]
        if counts.get("mine.trials"):
            m["mine.evaluated_frac"] = counts.get("mine.evaluated", 0) / counts["mine.trials"]
        m["cli.overhead.s"] = sum(r.wall for r in plain) - main_s
        m["cli.overhead.calls"] = len(plain)
        m["trace.overhead.s"] = total_traced - main_s
        m["trace.glue.s"] = glue
        m["reconcile.wall_s"] = wall
        return m


def setup(name: str, seed: int, work: Path, env: dict) -> tuple[workloads.Workload, float]:
    """Generate the inputs and start one cold interpreter that imports cubary;
    repeated, and the median time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl = workloads.build(name, seed, work.relative_to(ROOT))
        subprocess.run([sys.executable, "-c", "import cubary"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return wl, statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cubary" / "cli.py").is_file():
        print(f"perfbench: no cubary sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    deadline = time.monotonic() + DEADLINE_S
    work_root = HERE / ".work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True)
    try:
        env = dict(os.environ, PYTHONPATH=str(src))
        wl, setup_s = setup(args.workload, args.seed, work, env)
        bench = Bench(wl, work, deadline, env)
        if args.trace:
            metrics, notes = bench.per_layer(args.seconds)
            units = PER_LAYER
        else:
            metrics, notes = bench.end_to_end(args.seconds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    for problem in bench.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} (input variant {wl.variant} of {workloads.POOL})")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {bench.failed / bench.attempted:14.6g} 1  ({bench.failed} of {bench.attempted})")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
