"""Several sweeps run together: one draw per point across files, same bytes as alone."""

import dataclasses
from pathlib import Path

import pytest

from rscache import cli, montecarlo, run_sweep, run_sweeps
from rscache.caching import Mode
from rscache.model import SystemParams
from rscache.montecarlo import SimConfig
from rscache.sweep import SweepSpec, figure_presets

# a few thousand draws in 700-draw chunks: three chunks per estimate
SMALL = {"samples": 2_000, "chunk": 700}


def _shrunk(spec: SweepSpec, workers: int) -> SweepSpec:
    return dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, workers=workers, **SMALL))


def _counted_draws(monkeypatch) -> list:
    calls = []
    sample = montecarlo.sample_channels

    def counted(*args, **kwargs):
        calls.append(args[2])
        return sample(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_channels", counted)
    return calls


def _each_file_is_its_own_sweep(specs, tmp_path) -> None:
    together = [(spec, str(tmp_path / f"together{i}.csv")) for i, spec in enumerate(specs)]
    counts = run_sweeps(together)
    for i, (spec, path) in enumerate(together):
        alone = tmp_path / f"alone{i}.csv"
        assert run_sweep(spec, str(alone)) == counts[i]
        assert Path(path).read_bytes() == alone.read_bytes(), i


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(figure_presets()))
def test_a_preset_run_together_writes_each_file_as_alone(name, workers, tmp_path):
    specs = [_shrunk(spec, workers) for _, spec in figure_presets()[name]]
    _each_file_is_its_own_sweep(specs, tmp_path)


@pytest.mark.parametrize("name, draws", [("fig9", 17), ("fig3", 19), ("fig8", 19)])
def test_figure_samples_each_point_once(name, draws, monkeypatch, tmp_path):
    # every file of these presets shares the geometry, alpha, grid and
    # SimConfig, so a point's one chunk is drawn once for all of them
    calls = _counted_draws(monkeypatch)
    argv = ["figure", name, "--out-dir", str(tmp_path), "--methods", "mc", "--samples", "2000"]
    assert cli.main(argv) == 0
    assert calls == [2000] * draws


def test_specs_that_differ_in_what_a_draw_depends_on_run_apart(monkeypatch, tmp_path):
    base = SweepSpec(
        variable="beta", start=0.3, stop=0.7, points=2, mode=Mode.CC_MPC,
        methods=("analytic", "monte-carlo"), sim=SimConfig(seed=5, **SMALL),
    )

    def sim(**kw):
        return dataclasses.replace(base, sim=dataclasses.replace(base.sim, **kw))

    def params(**kw):
        return dataclasses.replace(base, params=SystemParams(**kw))

    specs = [
        base,
        params(r_c=40.0),
        params(alpha=3.5),
        sim(seed=6),
        sim(chunk=900),
        dataclasses.replace(base, stop=0.8),
        dataclasses.replace(base, points=3),
    ]
    calls = _counted_draws(monkeypatch)
    run_sweeps([(spec, str(tmp_path / f"s{i}.csv")) for i, spec in enumerate(specs)])
    # no two of them share a draw: every spec samples each point's chunks
    chunks = [len(spec.sim.chunk_sizes()) * spec.points for spec in specs]
    assert len(calls) == sum(chunks)
    _each_file_is_its_own_sweep(specs, tmp_path)


def test_analytic_only_and_simulated_specs_share_a_group(monkeypatch, tmp_path):
    base = SweepSpec(
        variable="rho", start=0.2, stop=0.8, points=2, mode=Mode.MPC_CC,
        sim=SimConfig(seed=9, **SMALL),
    )
    specs = [
        base,
        dataclasses.replace(
            base, methods=("monte-carlo",), mode=Mode.ALL_CC, subcases=("xor/pfr", "efr/efr")
        ),
        dataclasses.replace(base, methods=("analytic", "monte-carlo", "asymptotic")),
        # other params and split, same draw: one more variant kernel
        dataclasses.replace(base, methods=("monte-carlo",), params=SystemParams(xi=2.0, u=0.3)),
    ]
    calls = _counted_draws(monkeypatch)
    run_sweeps([(spec, str(tmp_path / f"s{i}.csv")) for i, spec in enumerate(specs)])
    assert len(calls) == len(base.sim.chunk_sizes()) * base.points
    _each_file_is_its_own_sweep(specs, tmp_path)
