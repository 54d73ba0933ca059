"""The benchmark's smoke mode: one checked round of every workload.

Smoke mode runs each operation traced and untraced, so a public function
renamed away from a name in ``perfbench/tracing.py`` fails here, and so does
any output that disagrees with ``perfbench/reference.py``.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct_for_every_workload():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    verdicts = dict(re.findall(r"^([\w-]+): correct=(\w+) ", proc.stdout, re.M))
    assert verdicts == {"coefficient-norms": "True", "quadrature-norms": "True",
                        "long-horizon": "True"}, proc.stdout
