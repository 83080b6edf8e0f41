"""The benchmark's trace hooks name functions that exist in the package."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import passes  # noqa: E402
import workloads  # noqa: E402


def test_every_bench_hook_resolves():
    # a renamed target would otherwise only show as "not hooked" in a traced run
    hooks = workloads.hooks(passes.import_package())
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in hooks if not hasattr(mod, attr)]
    assert missing == []
