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


def test_hooked_calls_go_through_the_hooked_names(monkeypatch):
    # the hooks rebind module globals; a caller that bound a name at import
    # time, or called a renamed helper, would leave its layer untraced
    fp = passes.import_package()
    calls = {}

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module, attr in ((fp.phase, "spectral_radius"), (fp.phase, "positive_row_witness"),
                         (fp.spectral, "char_poly"), (fp.spectral, "dominates_rho")):
        count(module, attr)
    ts = fp.type_system.compute_type_system(fp.lattice.project(fp.lattice.menger(), (1, 1, 1)))
    fp.phase.phase_report(ts)
    # digit 2's matrix is digit 0's mirrored, so it reuses that enclosure
    assert {k: calls[k] for k in ("spectral_radius", "positive_row_witness", "char_poly")} == {
        "spectral_radius": 2, "positive_row_witness": 1, "char_poly": 2}
    assert calls["dominates_rho"] > 0
