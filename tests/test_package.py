import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import maskcov


def test_all_names_resolve_to_objects_not_modules():
    exported = [getattr(maskcov, name) for name in maskcov.__all__]
    assert not [obj for obj in exported if isinstance(obj, ModuleType)]


def test_cli_imports_no_scipy():
    # every command pays its imports: scipy.linalg alone doubles them
    code = ("import sys, maskcov.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(maskcov.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
