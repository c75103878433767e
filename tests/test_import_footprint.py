"""Importing the library never loads ``scipy.signal``.

The Gabor bank convolves on ``scipy.fft`` directly.  ``scipy.signal`` is
large (on scipy 1.17 it adds about 48 MB resident and 431 modules to
``import repro``), so no ``repro`` module may pull it in.  The check runs
in a fresh interpreter, because this test process imports
``scipy.signal`` itself through the Gabor oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Imports every ``repro`` module except the ``__main__`` ones (importing
#: those runs a CLI) and reports what it imported.
PROBE = """
import importlib, json, pkgutil, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if info.name.rsplit(".", 1)[-1] != "__main__"]
for name in names:
    importlib.import_module(name)
print(json.dumps({
    "imported": names,
    "signal": sorted(m for m in sys.modules
                     if m == "scipy.signal" or m.startswith("scipy.signal.")),
}))
"""


def test_no_repro_module_imports_scipy_signal():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "repro.fingerprint.gabor" in report["imported"]
    assert "repro.fingerprint.enhancement" in report["imported"]
    assert report["signal"] == []
