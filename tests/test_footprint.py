"""What a fresh session process loads.

Every spawn-based worker of the experiment runner and the chaos suite, and
every classroom session, starts an interpreter and imports ``repro``; every
``python -m repro`` command imports ``repro.cli``.  These tests run such an
interpreter and check that building an instance, or loading the CLI, does
not drag in the OpenSSL hash binding, the process-pool machinery or the
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

CLI_PROBE = """
import json, sys
import repro.cli
print(json.dumps({"loaded": sorted(sys.modules)}))
"""

NOT_LOADED = {"hashlib", "_hashlib", "multiprocessing", "concurrent.futures"}


def _probe(source: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout)


def _experiment_modules() -> set[str]:
    modules = {
        f"repro.experiments.{info.name}"
        for info in pkgutil.iter_modules(repro.experiments.__path__)
        if info.name != "common"
    }
    assert {"repro.experiments.runner", "repro.experiments.ablation"} <= modules
    return modules


def test_session_imports_load_only_what_they_run():
    probe = _probe(PROBE)
    assert sorted((NOT_LOADED | _experiment_modules()) & set(probe["loaded"])) == []
    assert probe["ablation"] == "repro.experiments.ablation"


def test_cli_loads_no_experiment_until_one_runs():
    probe = _probe(CLI_PROBE)
    assert sorted((NOT_LOADED | _experiment_modules()) & set(probe["loaded"])) == []
