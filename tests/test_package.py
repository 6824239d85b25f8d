import inspect
import os
import subprocess
import sys
from pathlib import Path

import nlskdv as nk


def test_all_lists_every_public_name():
    # __all__ names exactly the public, non-module names the package
    # binds, so a deleted name cannot stay exported
    public = {name for name, value in vars(nk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(nk.__all__) == len(set(nk.__all__))
    assert set(nk.__all__) == public


def test_import_leaves_scipy_optimize_and_linalg_out():
    # the package needs scipy.fft only; scipy.optimize would also load
    # scipy.linalg, scipy.sparse and a second BLAS on every start
    src = str(Path(nk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, nlskdv, nlskdv.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[:2] in "
             "(['scipy', 'optimize'], ['scipy', 'linalg'])))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
