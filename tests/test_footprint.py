"""What a fresh session process loads.

Every spawn-based worker of the experiment runner and the chaos suite, and
every classroom session, starts an interpreter and imports ``repro``.  These
tests run such an interpreter and check that building an instance does not
drag in the OpenSSL hash binding, the process-pool machinery or the
experiment modules; each of those costs resident memory in every process.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro.experiments

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro, repro.experiments.common
loaded = sorted(sys.modules)
from repro.experiments import ablation
print(json.dumps({"loaded": loaded, "ablation": ablation.__name__}))
"""

NOT_LOADED = {"hashlib", "_hashlib", "multiprocessing", "concurrent.futures"}


def test_session_imports_load_only_what_they_run():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(completed.stdout)
    experiment_modules = {
        f"repro.experiments.{info.name}"
        for info in pkgutil.iter_modules(repro.experiments.__path__)
        if info.name != "common"
    }
    assert {"repro.experiments.runner", "repro.experiments.ablation"} <= experiment_modules
    assert sorted((NOT_LOADED | experiment_modules) & set(probe["loaded"])) == []
    assert probe["ablation"] == "repro.experiments.ablation"
