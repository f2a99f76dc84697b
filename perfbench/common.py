"""Shared plumbing: operation accounting, environment record, resources."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import traceback
from pathlib import Path

#: Working files the benchmark writes (inside its own directory).
OUT = Path(__file__).resolve().parent / "out"


class Ledger:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(reason)

    def exception(self, what: str) -> None:
        self.fail(f"{what}: {traceback.format_exc(limit=3)}")


def environment(config, **extra) -> dict:
    """Host and program facts every result records, with the resolved
    engine configuration."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "engine_config": {
            "backend": config.backend,
            "execution": config.execution,
            "path_impl": config.path_impl,
            # the engine lays hot operator state out as arrays exactly
            # when it runs the vector execution
            "state_layout": "arrays" if config.execution == "vector" else "objects",
            "batch_size": config.batch_size,
            "shards": config.shards,
        },
        **extra,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def checkpoint_footprint(path: Path) -> tuple[int, int]:
    """(bytes, files) of everything under a checkpoint directory."""
    total = files = 0
    for root, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
            files += 1
    return total, files


def fresh_dir(name: str) -> Path:
    """A fresh, empty directory under :data:`OUT`."""
    path = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
