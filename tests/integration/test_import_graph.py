"""What a fresh interpreter loads for each entry point.

The package roots resolve their public names lazily, so a process that
imports one subpackage loads only what that subpackage needs: a cohort
run never loads the packet-level session stack, the experiment
drivers, or a graph library. Each check runs in a new interpreter,
because this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a cohort or dynamics process must not load.
HEAVY = ("networkx", "scipy", "repro.core.infrastructure",
         "repro.experiments")


def fresh(code: str):
    """Run ``code`` in a new interpreter and decode the JSON it prints
    last (``json`` and ``sys`` are imported for it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def loaded_after(statement: str) -> list[str]:
    """Names in ``sys.modules`` after ``statement`` in a new interpreter."""
    return fresh(f"{statement}\nprint(json.dumps(sorted(sys.modules)))")


def test_package_root_loads_no_subpackage():
    repro_modules = [m for m in loaded_after("import repro")
                     if m == "repro" or m.startswith("repro.")]
    assert repro_modules == ["repro"]


@pytest.mark.parametrize("module", ["repro.core.cohort", "repro.dynamics"])
def test_cohort_processes_skip_the_heavy_stack(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    heavy = [m for m in loaded
             if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []


@pytest.mark.parametrize("package", ["repro", "repro.core",
                                     "repro.experiments"])
def test_every_public_name_resolves(package):
    missing, unresolved = fresh(f"""
import {package} as pkg
print(json.dumps([[n for n in pkg.__all__ if n not in dir(pkg)],
                  [n for n in pkg.__all__ if getattr(pkg, n, None) is None]]))
""")
    assert missing == []
    assert unresolved == []


def test_quick_start_names_import():
    loaded = loaded_after(
        "from repro import peersim_scenario, SystemVariant, "
        "simulate_sessions")
    assert "repro.core.infrastructure" in loaded
