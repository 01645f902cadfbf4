"""Record bench/golden.json: the output digests of every operation that
any benchmark seed can select.

usage: python3 bench/record_golden.py [WORKLOAD ...]

Run from the repository root. Without arguments every workload is
recorded; with arguments only those entries are replaced. Re-record only
for a change that deliberately alters voipqos's outputs, and say so in
CHANGES.md.
"""
import json
import sys
import time

from run import BENCH, WORK, import_voipqos


def main(argv) -> int:
    import_voipqos()
    from ops import Runner, golden_entry
    from workloads import WORKLOADS, golden_pool

    path = BENCH / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    WORK.mkdir(exist_ok=True)
    for workload in argv or list(WORKLOADS):
        pool = golden_pool(workload)
        start = time.perf_counter()
        with Runner(str(WORK / "artifacts-record")) as runner:
            runner.prepare(pool)
            golden[workload] = {op.key: golden_entry(runner.run(op)) for op in pool}
        print(f"{workload}: {len(pool)} operations in {time.perf_counter() - start:.1f} s")
    lines = ",\n".join(
        f"  {json.dumps(w)}: {{\n"
        + ",\n".join(
            f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(golden[w].items())
        )
        + "\n  }"
        for w in sorted(golden)
    )
    path.write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
