"""Exact SI constants, and a CLI import path that does not load scipy."""

import os
import subprocess
import sys

import scipy.constants

import kipa
from kipa import constants


def test_constants_equal_scipy_exactly():
    assert constants.hbar == scipy.constants.hbar
    assert constants.k_B == scipy.constants.k


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(kipa.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = ("import sys, kipa.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "[]"
