"""Record the sha256 of every operation's stdout, for every input variant.

    python3 perfbench/record_digests.py

Run from the repository root at the commit whose output is the reference
(the seed commit for the digests checked in). It rewrites
`perfbench/digests.json`. Each operation is run once, with its pipeline
input taken from the recorded run of the stage before it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def record(name: str, variant: int) -> dict:
    work = HERE / ".work" / f"record-{name}-{variant}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(name, variant, work.relative_to(ROOT))
        outs, digests = {}, {}
        for op in wl.ops:
            if variant and "@" not in op.key:
                continue  # seed-independent: recorded with variant 0
            stdin = outs.get(op.stdin, b"")
            p = subprocess.run(op.command(sys.executable), input=stdin, capture_output=True, env=ENV, cwd=ROOT)
            if p.returncode != 0:
                raise RuntimeError(f"{op.key} exited {p.returncode}: {p.stderr.decode()[-500:]}")
            outs[op.key] = p.stdout
            digests[op.key] = hashlib.sha256(p.stdout).hexdigest()
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    tasks = [(name, v) for name in workloads.WORKLOADS for v in range(workloads.POOL)]
    digests: dict = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for part in pool.map(lambda t: record(*t), tasks):
            digests.update(part)
    out = {"pool": workloads.POOL, "sha256": dict(sorted(digests.items()))}
    (HERE / "digests.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    work_root = HERE / ".work"
    if work_root.is_dir() and not any(work_root.iterdir()):
        work_root.rmdir()
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
