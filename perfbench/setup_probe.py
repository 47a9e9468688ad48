"""Print one workload's set-up time, measured in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is everything up to the first timed operation: importing bivarseq
(with numpy and scipy), building the designs and generating the inputs.
"""

import json
import sys
import time

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload](seed, workdir).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
