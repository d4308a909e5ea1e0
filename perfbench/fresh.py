"""One fresh process of a workload, started by run.py to measure set-up and
peak memory.

    python3 perfbench/fresh.py <workload> <seed> <out-dir> <full-pass: 0|1>

It imports qfluid (numpy, scipy), builds the workload's inputs and makes one
short warm-up call, then prints `ready`: the parent's clock from spawn to
that line is the set-up time.  With full-pass 1 it then runs one full pass
and checks it.  Last it prints its peak RSS and verdict as one JSON line.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qfluid.cli  # noqa: E402,F401  (the import is part of set-up)
from workloads import check_pass, invocations, run_pass, warmup_call  # noqa: E402


def main(workload: str, seed: int, out: Path, full_pass: bool) -> None:
    calls = invocations(workload, seed, out)
    warm = check_pass(run_pass([warmup_call(workload, seed, out / "warmup")]))
    print("ready", flush=True)
    verdict = check_pass(run_pass(calls if full_pass else []))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "rss_mb": rss_kb / 1024,
        "runs": warm.runs + verdict.runs,
        "failed": warm.failed + verdict.failed,
        "problems": warm.problems + verdict.problems,
        "sha256": verdict.sha256,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1")
