"""Tests of the benchmark's own helpers (run with the repository's pytest command)."""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib as bl  # noqa: E402
import run  # noqa: E402


# --- percentile rule -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))[::-1]
    assert bl.percentile(samples, 50) == 500
    assert bl.percentile(samples, 99) == 990


def test_percentile_needs_ten_samples_beyond():
    bl.percentile(list(range(1000)), 99)
    with pytest.raises(ValueError):
        bl.percentile(list(range(999)), 99)
    bl.percentile(list(range(20)), 50)
    with pytest.raises(ValueError):
        bl.percentile(list(range(19)), 50)


# --- self time -----------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        bl.Span("root", 0, 100, -1),
        bl.Span("a", 10, 40, 0),
        bl.Span("a.child", 15, 25, 1),
        bl.Span("b", 50, 70, 0),
    ]
    assert bl.self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [bl.Span("root", 0, 100, -1), bl.Span("x", 10, 30, 0), bl.Span("y", 20, 50, 0),
             bl.Span("z", 90, 120, 0)]
    assert bl.self_times(spans)[0] == 100 - 40 - 10


# --- tracing -------------------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    core.inner, core.outer = inner, outer
    user.inner = inner  # bound by name, as "from .core import inner" does
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_tracer_patches_every_binding_and_restores(fake_package):
    core, user = fake_package
    inner, outer = core.inner, core.outer
    tracer = bl.Tracer("fakepkg")
    assert tracer.install(core, "inner", "core.inner", note=lambda r: {"r": r})
    assert tracer.install(core, "outer", "core.outer")
    assert not tracer.install(core, "missing", "core.missing")
    assert core.inner is not inner and user.inner is not inner
    with tracer.span("root", item=[7]):
        assert core.outer(1) == 4
        assert user.inner(5) == 6
    tracer.restore()
    assert core.inner is inner and user.inner is inner and core.outer is outer
    names = [s.name for s in tracer.spans]
    assert names == ["root", "core.outer", "core.inner", "core.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.spans[2].note == {"r": 2} and tracer.spans[2].item == [7]


def test_tracer_records_exceptions(fake_package):
    core, _ = fake_package
    tracer = bl.Tracer("fakepkg")
    tracer.install(core, "inner", "core.inner")
    try:
        with pytest.raises(TypeError):
            core.inner(None)
    finally:
        tracer.restore()
    assert tracer.spans[0].error == "TypeError" and tracer.spans[0].end >= tracer.spans[0].start


def test_install_layers_restores_seqtoa():
    pytest.importorskip("seqtoa")
    import seqtoa  # noqa: F401
    from seqtoa import analysis, baselines, cli, estimator, model, montecarlo, serialize  # noqa: F401

    mods = [m for n, m in sys.modules.items() if n == "seqtoa" or n.startswith("seqtoa.")]
    before = [dict(vars(m)) for m in mods]
    tracer = bl.Tracer("seqtoa")
    run.install_layers(tracer)
    assert montecarlo.simulate_frame is not before[mods.index(montecarlo)]["simulate_frame"]
    tracer.restore()
    for m, snapshot in zip(mods, before):
        assert all(vars(m)[k] is v for k, v in snapshot.items()), m.__name__


# --- output check --------------------------------------------------------------------

ROWS = [
    ["-20", "proposed", "position", "0.125", "0.0625", "0.1", "20", "0"],
    ["-20", "proposed", "velocity", "1.5", "0.25", "1.25", "20", "0"],
    ["-20", "tswls_static", "position", "nan", "nan", "0.1", "0", "20"],
]


def _perturb(rows, r, c, value):
    out = [list(row) for row in rows]
    out[r][c] = value
    return out


def test_sweep_check_accepts_rounding_and_rejects_perturbation():
    assert bl.check_sweep_rows(ROWS, ROWS) == []
    assert bl.check_sweep_rows(_perturb(ROWS, 0, 3, repr(0.125 * (1 + 1e-9))), ROWS) == []
    assert bl.check_sweep_rows(_perturb(ROWS, 0, 3, repr(0.125 * (1 + 1e-3))), ROWS)
    assert bl.check_sweep_rows(_perturb(ROWS, 1, 4, "0.26"), ROWS)
    assert bl.check_sweep_rows(_perturb(ROWS, 1, 5, "1.251"), ROWS)
    assert bl.check_sweep_rows(_perturb(ROWS, 0, 6, "19"), ROWS)
    assert bl.check_sweep_rows(_perturb(ROWS, 2, 3, "1.0"), ROWS)
    assert bl.check_sweep_rows(ROWS[:2], ROWS)


def test_frame_check_rejects_perturbed_state():
    ref = [[1.0, 2.0, 0.5, -0.5, 3.0, 6000.0, 3, True], None]
    scale = [0.1, 0.1, 0.5, 0.5, 0.2, 0.9]
    assert bl.check_frames(ref, ref, scale) == []
    assert bl.check_frames([_perturb(ref[:1], 0, 5, 6000.0 + 1e-7)[0], None], ref, scale) == []
    assert bl.check_frames([_perturb(ref[:1], 0, 5, 6000.0 + 1e-3)[0], None], ref, scale)
    assert bl.check_frames([_perturb(ref[:1], 0, 6, 4)[0], None], ref, scale)
    assert bl.check_frames([ref[0], ref[0]], ref, scale)


def test_sweep_check_catches_dropped_second_pass(tmp_path, monkeypatch):
    pytest.importorskip("seqtoa")
    import numpy as np

    from seqtoa import estimator, montecarlo, serialize

    doc = json.loads((HERE / "workloads" / "noise_sweep.json").read_text())
    doc.update(n_trials=8, sweep_values=[-40.0, -20.0], estimators=["proposed"])
    spec = serialize.experiment_spec_from_dict(doc)

    def rows():
        path = tmp_path / "sweep.csv"
        montecarlo.write_sweep_csv(montecarlo.run_trials(spec), spec, path)
        return run.parse_csv(path.read_text())[1:]

    reference = rows()

    def pass_one_only(frame):
        wls = estimator.solve_wls_qr(estimator.build_design(frame), np.eye(frame.n_agents))
        return estimator.gauss_newton_refine(wls, frame.noise.position_cov_traces())

    monkeypatch.setattr(estimator, "estimate", pass_one_only)
    assert bl.check_sweep_rows(rows(), reference)


# --- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
