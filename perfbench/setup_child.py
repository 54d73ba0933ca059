"""One fresh start: import wcochaos and build the operators of a round.

Argument: a JSON list of ExperimentConfig fields.  Prints a JSON object with
the seconds spent importing wcochaos; the parent times the whole start.
"""

import json
import sys
import time

t0 = time.perf_counter()
from wcochaos.experiments import ExperimentConfig, build_operator  # noqa: E402

t1 = time.perf_counter()
for fields in json.loads(sys.argv[1]):
    build_operator(ExperimentConfig(**fields))
print(json.dumps({"import_s": t1 - t0}))
