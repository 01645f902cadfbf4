"""Check every golden-pool operation against bench/golden.json.

usage: python tools/check_golden.py [WORKLOAD ...]

Run from the repository root. Every operation that any benchmark seed can
select is run once through the benchmark's own runner and compared with
its recorded outcome: the output digests of a run that returns, or the
error of one that raises. The run invariants (packet conservation, the
reservation ledger, knowledge-base ranks, trace errors) are checked too.
Prints one line per workload and exits 1 on any mismatch or breach, or 2
on an unknown workload name.
Without arguments every workload is checked; all of them take about
3 minutes on a 2-vCPU VM.
"""
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from run import BENCH, import_voipqos  # noqa: E402


def main(argv) -> int:
    import_voipqos()
    from ops import Runner
    from workloads import WORKLOADS, golden_pool

    unknown = [name for name in argv if name not in WORKLOADS]
    if unknown:
        print(
            "usage: python tools/check_golden.py [WORKLOAD ...]\n"
            f"error: unknown workload {', '.join(unknown)}; "
            f"valid: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    failed = 0
    for workload in argv or list(WORKLOADS):
        pool = golden_pool(workload)
        start = time.perf_counter()
        raised, mismatches, breaches = Counter(), [], []
        with tempfile.TemporaryDirectory() as tmp, Runner(
            str(Path(tmp) / "artifacts"), golden[workload]
        ) as runner:
            runner.prepare(pool)
            for op in pool:
                outcome = runner.run(op)
                if outcome.error is not None:
                    raised[outcome.error.split(":")[0]] += 1
                if outcome.mismatch is not None:
                    mismatches.append(outcome.mismatch)
                breaches += [f"{op.key}: {b}" for b in outcome.breaches]
        raises = ", ".join(f"{n} {name}" for name, n in sorted(raised.items())) or "none"
        print(
            f"{workload}: {len(pool) - len(mismatches)}/{len(pool)} match, "
            f"raised: {raises}, breaches: {len(breaches)}, "
            f"{time.perf_counter() - start:.1f} s",
            flush=True,
        )
        for problem in (mismatches + breaches)[:10]:
            print(f"  {problem}")
        failed += len(mismatches) + len(breaches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
