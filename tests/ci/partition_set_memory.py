"""Hold the benchmark's ima-static mix of partition sets and bound the peak RSS.

4,800 sets (m 4/8/12, MIr 0.25, U 0.10-0.90) are generated and held at
once. The script prints the wall time to generate them, with no bound, and
the peak RSS, and exits 1 if the peak is over 57 MB. Run it from the
repository root with membw installed or on the path:
``PYTHONPATH=src python3 tests/ci/partition_set_memory.py``.
"""

import random
import resource
import sys
import time
from fractions import Fraction

from membw.ima import ExperimentConfig, generate_partition_set

sets = []
start = time.perf_counter()
for i in range(4800):
    config = ExperimentConfig(m=(4, 8, 12)[i % 3], mir=Fraction(1, 4), u=Fraction(10 + i % 81, 100))
    sets.append(generate_partition_set(config, random.Random(i)))
wall_s = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{len(sets)} sets, {sum(len(s.ids) for s in sets)} partitions in {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB")
if peak_mb > 57:
    sys.exit(f"peak RSS {peak_mb:.1f} MB is over the 57 MB bound")
