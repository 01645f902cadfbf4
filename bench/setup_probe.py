"""Set-up time of one fresh interpreter: import voipqos, load the
workload's scenarios, load the shipped knowledge base. Prints seconds.

usage: python3 setup_probe.py SRC_DIR SCENARIOS_JSON
"""
import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from voipqos import harness  # noqa: E402

with open(sys.argv[2]) as fh:
    spec = json.load(fh)
for name in spec["presets"]:
    harness.load_scenario(name)
for text in spec["scenarios"]:
    harness.scenario_from_json(json.loads(text))
harness.default_kb()
print(repr(time.perf_counter() - start))
