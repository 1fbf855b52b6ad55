"""Scaling sweep over the n-line family: per-layer traced records per size.

Not part of the gated benchmark.  For each n and stage, one child process
runs the stage once under the tracer and prints its record; a child that
passes the per-case cap is killed and recorded as ``"timeout"``.

    python3 bench/scaling.py                 # writes bench/scaling.json
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "scaling.json"
SIZES = (4, 8, 12, 16, 24, 32)
STAGES = ("homology", "pi1")
SEED = 0
CAP_S = 60.0  # seconds per case


def run_case(n: int, stage: str) -> dict:
    """Run one stage on one generated gluing under the tracer."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from nlines import random_n_lines
    from tracer import Tracer, layer_totals

    doc = random_n_lines(n, SEED)
    inp = {"doc": doc, "text": json.dumps(doc)}
    run = workloads.homology_run if stage == "homology" else workloads.pi1_run
    with Tracer() as tracer:
        tracer.op = 0
        t0 = time.perf_counter()
        raw = run(inp)
        wall = time.perf_counter() - t0
        tracer.op = None
    layers = {}
    for name, entry in layer_totals(tracer.spans).items():
        layers[name] = {"calls": entry["calls"], "self_s": entry["self_s"]}
        for sizes in entry["sizes"]:
            for key, value in sizes.items():
                if isinstance(value, int):
                    layers[name][f"max_{key}"] = max(layers[name].get(f"max_{key}", 0), value)
    record = {"wall_s": wall, "layers": layers}
    if stage == "homology":
        record["homology"] = workloads.homology_summary(raw)["homology"]
    else:
        summary = workloads.pi1_summary(raw)
        record.update(generators_out=summary["rank"], budget_exit=summary["budget_exit"])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # one case in a child process; the sweep below starts these
    parser.add_argument("--case", nargs=2, metavar=("N", "STAGE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.case:
        print(json.dumps(run_case(int(args.case[0]), args.case[1])))
        return 0

    records = []
    for n in SIZES:
        for stage in STAGES:
            case = {"n": n, "seed": SEED, "stage": stage}
            try:
                done = subprocess.run(
                    [sys.executable, __file__, "--case", str(n), stage],
                    capture_output=True, text=True, timeout=CAP_S, check=True)
                case.update(status="ok", **json.loads(done.stdout))
            except subprocess.TimeoutExpired:
                case.update(status="timeout", cap_s=CAP_S)
            print(json.dumps({k: case[k] for k in ("n", "stage", "status")}
                             | ({"wall_s": round(case["wall_s"], 3)} if "wall_s" in case else {})),
                  flush=True)
            records.append(case)
    OUT.write_text(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": records,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
