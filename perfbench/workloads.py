"""The three workloads: seeded inputs, operation lists and expected results.

Inputs depend on the workload seed only through ``variant = seed % POOL``.
`digests.json` holds the sha256 of every operation's stdout for every
variant, recorded at the seed commit, so each run can check that stdout is
byte-identical to the seed's.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

POOL = 64

# Wide input: `WIDE_VOXELS` distinct unit cubes drawn from the side-6 block.
# The count is fixed rather than Bernoulli so that the face count, and so
# the work, varies by well under 1% between seeds.
WIDE_SIDE = 6
WIDE_VOXELS = 190

MINE_COMMANDS = (("unimodality", 2, 1000), ("realroot", 2, 1000), ("unimodality", 3, 100), ("realroot", 3, 100))

# Driver cases: (8,8,8) up to n=18, where `rational_roots` still finishes
# within a second, and the short h-vectors of seeded voxel complexes at
# small n, where its time depends little on the vector.
DRIVER_FIXED_NS = list(range(19))
DRIVER_VOXEL_CASES = ((2, (2, 4, 6, 8)), (2, (2, 4, 6, 8)), (2, (2, 4, 6, 8)), (3, (2, 4)), (3, (2, 4)))


@dataclass
class Op:
    """One process the benchmark starts: a `cubary` CLI command or the driver."""

    key: str  # digest key, unique within a workload
    kind: str  # "cli" or "driver"
    argv: list[str]
    stdin: str | None = None  # key of the op whose stdout this op reads
    gen_f: list[int] | None = None  # f-vector of the generated complex (gen ops)
    rounds: int = 0  # subdivide rounds (subdivide ops)
    trials: int = 0  # mine trials (mine ops)

    def command(self, python: str) -> list[str]:
        return [python, *self.argv] if self.kind == "driver" else [python, "-m", "cubary", *self.argv]


@dataclass
class Workload:
    name: str
    variant: int
    ops: list[Op] = field(default_factory=list)


def cube_f(d: int, boundary: bool) -> list[int]:
    """f-vector of the d-cube (or its boundary), by the binomial formula."""
    top = d if boundary else d + 1
    return [comb(d, i) * 2 ** (d - i) for i in range(top)]


def voxel_f(dim: int, corners) -> list[int]:
    """f-vector of a voxel complex, by counting distinct (free axes, corner) faces."""
    faces = set()
    for c in corners:
        for free in itertools.product((0, 1), repeat=dim):
            ranges = [(c[i],) if free[i] else (c[i], c[i] + 1) for i in range(dim)]
            for corner in itertools.product(*ranges):
                faces.add((free, corner))
    f = [0] * (dim + 1)
    for free, _ in faces:
        f[sum(free)] += 1
    return f


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.as_posix()


def _bernoulli_corners(rng: random.Random, dim: int, side: int = 4) -> list:
    while True:
        corners = [c for c in itertools.product(range(side), repeat=dim) if rng.getrandbits(1)]
        if corners:
            return corners


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs under `workdir` and its operation list.

    `workdir` is given relative to the checkout root, where the operations
    run.
    """
    variant = seed % POOL
    rng = random.Random(f"{name}:{variant}")
    w = Workload(name, variant)
    tag = f"@{variant}"
    ops = w.ops
    if name == "poset_pipeline":
        ops += [
            Op("deep.gen", "cli", ["gen", "--cube-boundary", "4"], gen_f=cube_f(4, True)),
            Op("deep.subdivide", "cli", ["subdivide", "-n", "2"], "deep.gen", rounds=2),
            Op("deep.vectors", "cli", ["vectors"], "deep.subdivide"),
        ]
        cells = list(itertools.product(range(WIDE_SIDE), repeat=3))
        corners = sorted(rng.sample(cells, WIDE_VOXELS))
        text = "dim 3\n" + "".join(" ".join(map(str, c)) + "\n" for c in corners)
        vox = _write(workdir / "wide.vox", text)
        ops += [
            Op("wide.gen" + tag, "cli", ["gen", "--voxels", vox], gen_f=voxel_f(3, corners)),
            Op("wide.subdivide" + tag, "cli", ["subdivide", "-n", "1"], "wide.gen" + tag, rounds=1),
            Op("wide.vectors" + tag, "cli", ["vectors"], "wide.subdivide" + tag),
            Op("cube7.gen", "cli", ["gen", "--cube", "7"], gen_f=cube_f(7, False)),
            Op("cube7.vectors", "cli", ["vectors"], "cube7.gen"),
        ]
    elif name == "mine_search":
        for target, dim, trials in MINE_COMMANDS:
            argv = ["mine", "--target", target, "--dim", str(dim), "--trials", str(trials),
                    "--seed", str(rng.getrandbits(63))]
            ops.append(Op(f"mine.{target}.d{dim}{tag}", "cli", argv, trials=trials))
    elif name == "closed_form":
        ops += [Op(f"coeffs.C.{d}", "cli", ["coeffs", "--matrix", "C", "-d", str(d)]) for d in (12, 16, 18)]
        ops.append(Op("coeffs.B.60", "cli", ["coeffs", "--matrix", "B", "-d", "60"]))
        for d in (3, 4, 5, 6):
            ops.append(Op(f"cb{d}.gen", "cli", ["gen", "--cube-boundary", str(d)]))
            for which in ("hsc", "hc"):
                argv = ["limit", "--max-n", "30", "--which", which]
                ops.append(Op(f"cb{d}.limit.{which}", "cli", argv, f"cb{d}.gen"))
        ops.append(Op("verify.all", "cli", ["verify", "--suite", "all", "--corpus", "default"]))
        fixed = [{"label": "hsc_888", "hsc": [8, 8, 8], "ns": DRIVER_FIXED_NS}]
        fixed_path = _write(workdir / "fixed.json", json.dumps(fixed))
        ops.append(Op("driver.fixed", "driver", ["perfbench/driver.py", fixed_path]))
        cases = [
            {"label": f"voxel_{i}", "dim": dim, "corners": _bernoulli_corners(rng, dim), "ns": list(ns)}
            for i, (dim, ns) in enumerate(DRIVER_VOXEL_CASES)
        ]
        voxels_path = _write(workdir / "voxels.json", json.dumps(cases))
        ops.append(Op("driver.voxels" + tag, "driver", ["perfbench/driver.py", voxels_path]))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return w


WORKLOADS = ("poset_pipeline", "mine_search", "closed_form")
