import json
import os
import subprocess
import sys
from pathlib import Path

import bbsolve

# Run in a fresh interpreter: the test process has loaded scipy.stats already.
_FOOTPRINT_SCRIPT = """
import json, sys
import bbsolve, bbsolve.cli
from bbsolve.bench import ExperimentSuite, one_sided_paired_pvalue, run_suite
from bbsolve.engine import BbsConfig

# the default algorithms: bbs, sa and hc
suite = ExperimentSuite("knapsack", (4,), instances_per_size=1, bbs=BbsConfig(updates=2, samples=2))
run_suite(suite, jobs=1)
loaded = [name for name in ("scipy.stats", "concurrent.futures.process") if name in sys.modules]
better = [0.1, 0.4, 0.2, 0.0, 0.3, 0.25]
worse = [0.3, 0.5, 0.2, 0.4, 0.35, 0.6]
pvalue = one_sided_paired_pvalue(better, worse)
from scipy import stats
reference = float(stats.ttest_rel(better, worse, alternative="less").pvalue)
print(json.dumps({"loaded": loaded, "pvalue": pvalue, "reference": reference}))
"""


def test_every_exported_name_imports_once():
    assert len(bbsolve.__all__) == len(set(bbsolve.__all__))
    namespace = {}
    exec("from bbsolve import *", namespace)
    assert set(bbsolve.__all__) <= namespace.keys()


def test_import_and_serial_suite_leave_scipy_stats_and_process_pool_unloaded():
    src = str(Path(bbsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["loaded"] == []
    assert 0.0 < result["pvalue"] < 1.0
    assert result["pvalue"] == result["reference"]
