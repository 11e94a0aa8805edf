"""Locating the program under test and recording the environment it ran in."""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/maskcov`` to benchmark."""


def import_maskcov():
    """Import ``maskcov`` from this checkout's ``src`` and return its ``cli``.

    Refuses any other installed copy, so that a checkout without sources
    fails instead of measuring something else.
    """
    if not (SRC / "maskcov" / "__init__.py").is_file():
        raise MissingProgram(f"no maskcov sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("maskcov.cli")
    origin = Path(cli.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"imported maskcov from {origin}, not {SRC}")
    return cli


def work_dir(label: str) -> Path:
    path = WORK / f"{label}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # other runs still use it


def _git_commit():
    """HEAD commit read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_identity() -> dict:
    """Git commit when available, and always a digest of ``src/maskcov``."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "maskcov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


def _openblas():
    """(version string, threads in effect) of numpy's bundled OpenBLAS."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"),
                               ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                                  None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), get_threads()
    return None, None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_config": config,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k.endswith("_NUM_THREADS")},
        **source_identity(),
    }
