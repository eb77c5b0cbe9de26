"""Command-line surface: golden outputs, exit codes, settings precedence."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rscache import cli, quadrature
from rscache.distributions import coverage, dist_spec
from rscache.model import (
    PowerSplit,
    ReceiverClass,
    SinrKind,
    SystemParams,
    stream_powers,
)
from rscache.montecarlo import SimConfig
from rscache.quadrature import QuadratureError
from rscache.sweep import figure_presets

DATA = Path(__file__).parent / "data"

GOLDEN_SWEEP_ARGS = [
    "sweep",
    "--var", "beta", "--from", "0.2", "--to", "0.8", "--points", "3",
    "--mode", "cc-mpc", "--subcases", "xor/efr,pfr/efr+iic-e",
    "--methods", "both", "--samples", "20000", "--seed", "42",
]


def run_sweep_args(tmp_path, extra=(), name="out.csv"):
    out = tmp_path / name
    rc = cli.main(GOLDEN_SWEEP_ARGS + list(extra) + ["--out", str(out)])
    assert rc == 0
    return out


def test_sweep_reproduces_golden_csv(tmp_path):
    out = run_sweep_args(tmp_path)
    assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()


def test_worker_count_leaves_bytes_alone(tmp_path):
    out = run_sweep_args(tmp_path, ["--workers", "4"])
    assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()


def test_placement_reproduces_golden_text(capsys):
    assert cli.main(["placement", "5", "6", "10"]) == 0
    got = capsys.readouterr().out
    assert got == (DATA / "golden_placement.txt").read_text()


def test_placement_tiny_catalog(capsys):
    assert cli.main(["placement", "2", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "replication degree t=1" in out
    assert "splits into 2 subfiles" in out
    assert out.count("group ") == 1
    assert "per-receiver load: 0.25" in out


def test_placement_rejects_fractional_replication(capsys):
    assert cli.main(["placement", "5", "7", "10"]) == 1
    err = capsys.readouterr().err
    assert "must be an integer" in err


def test_placement_rejects_bad_demand(capsys):
    assert cli.main(["placement", "2", "1", "2", "--demands", "1,3"]) == 1


def test_compare_accepts_its_own_sweep(tmp_path, capsys):
    out = run_sweep_args(tmp_path)
    rc = cli.main(["compare", str(out), "--samples", "20000"])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "worst z per quantity" in printed
    assert "worst z per subcase" in printed
    assert "PASS" in printed


def test_compare_flags_a_corrupted_column(tmp_path, capsys):
    out = run_sweep_args(tmp_path)
    lines = out.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[3] == "xor/efr" and cells[7] == "analytic":
            cells[8] = repr(float(cells[8]) * 2.0)
            lines[i] = ",".join(cells)
            break
    else:
        pytest.fail("no analytic row found to corrupt")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["compare", str(bad), "--samples", "20000"])
    printed = capsys.readouterr().out
    assert rc == 3
    assert "MISMATCH" in printed
    assert "FAIL" in printed


def test_compare_missing_file_is_a_usage_error():
    assert cli.main(["compare", "/nonexistent/sweep.csv"]) == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_compare_without_draws_is_a_usage_error(samples, tmp_path, capsys):
    # no draws turn every frequency into an event count of 0, which no
    # check can fail
    out = run_sweep_args(tmp_path)
    capsys.readouterr()
    assert cli.main(["compare", str(out), "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err == f"error: samples must be at least 1, got {samples}\n"


def test_numerical_failure_exit_code(monkeypatch, tmp_path):
    def explode(spec, path):
        raise QuadratureError("synthetic breakdown")

    monkeypatch.setattr(cli, "run_sweep", explode)
    rc = cli.main(GOLDEN_SWEEP_ARGS + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["sweep", "--var", "beta", "--mode", "cc-mpc"],
        ["sweep", "--var", "gamma", "--from", "0", "--to", "1",
         "--points", "3", "--mode", "cc-mpc"],
        ["sweep", "--var", "beta", "--from", "0.2", "--to", "0.8",
         "--points", "1", "--mode", "cc-mpc"],
        ["sweep", "--var", "beta", "--from", "0.2", "--to", "0.8",
         "--points", "3", "--mode", "cc-mpc", "--subcases", "efr/xor"],
        # a technique name the token grammar does not know
        ["sweep", "--var", "beta", "--from", "0.2", "--to", "0.8",
         "--points", "3", "--mode", "all-cc", "--subcases", "foo/efr"],
    ],
)
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "setting",
    ["zeta=nan", "alpha=nan", "P=inf", "alpha=200", "alpha=inf", "r_0=inf", "sigma2=inf"],
)
def test_nan_setting_exits_1_without_output(setting, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--var", "beta", "--from", "0.3", "--to", "0.6",
            "--points", "2", "--mode", "all-mpc", "--set", setting]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "must" in capsys.readouterr().err


def test_a_numerical_failure_names_its_integral_and_point(monkeypatch, tmp_path, capsys):
    # every point of a sweep shares one rule evaluation, so the message must
    # say which integral missed: its functional, receiver, pre-log and point
    monkeypatch.setattr(quadrature, "DEFAULT_RTOL", 1e-14)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--var", "beta", "--from", "0.3", "--to", "0.6", "--points", "2",
            "--mode", "mpc-cc", "--methods", "analytic", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "private_rate_after_common (center receiver, pre-log 1) at beta=0.3, rho=0.5, P=10: " in err
    assert "position-averaged E1 rule failed: error estimate" in err


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: at alpha = 5.7 the centre's single common rate misses "
    "the E1 rule's error target, so this sweep exits 2",
)
def test_a_large_alpha_sweep_gives_finite_rows(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--var", "rho", "--from", "0.4", "--to", "0.5", "--points", "2",
            "--mode", "all-mpc", "--methods", "analytic", "--set", "beta=0.99",
            "--set", "P=0.00536", "--set", "sigma2=0.000148", "--set", "alpha=5.7",
            "--set", "r_c=238", "--set", "r_e=1460", "--set", "r_0=9830",
            "--set", "zeta=0.00135", "--set", "xi=0.00171", "--set", "u=0.876",
            "--out", str(out)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(value)) for row in rows for value in row[8:11])


@pytest.mark.parametrize(
    "cls, setting", [("center", "alpha=200"), ("edge", "r_0=1e200")]
)
def test_overflowing_path_loss_exits_1(cls, setting, capsys):
    argv = ["coverage", "--kind", "common", "--cls", cls, "--t", "0.5",
            "--no-mc", "--set", setting]
    assert cli.main(argv) == 1
    assert "must" in capsys.readouterr().err


DEGENERATE_SWEEP = [
    "sweep", "--var", "beta", "--from", "0.3", "--to", "0.7", "--points", "2",
    "--mode", "all-mpc", "--methods", "analytic",
]

# a cell so small that the tail's normaliser s^a underflows at the levels asked
TINY_CELL = [
    "--set", "P=4.2e-81", "--set", "sigma2=1.2e14", "--set", "alpha=2.08",
    "--set", "r_c=1.1e-109", "--set", "r_e=1.5e-109", "--set", "r_0=2.2e-108",
    "--set", "rho=0",
]

ZERO_ZERO_NOTE = (
    "note: 0/0 SINR bound: stream and interferer powers both vanish; "
    "treating the bound as infinite by convention"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        # a threshold whose scale underflows to 0: the coverage is 1
        (["coverage", "--kind", "common", "--t", "5e-324", "--no-mc"], 0),
        # a NaN threshold has no coverage: rejected as input
        (["coverage", "--kind", "common", "--t", "0.5,nan", "--no-mc"], 1),
        # the partner scale of the min-rate underflows; near-infinite SNR
        (DEGENERATE_SWEEP + ["--set", "sigma2=1e-300"], 0),
        # the private threshold's scale underflows to 0
        (DEGENERATE_SWEEP + ["--set", "xi=1e-300"], 0),
        # the disk's area r_c^2 underflows: rejected as input
        (DEGENERATE_SWEEP + ["--set", "r_c=1e-200"], 1),
        # a subnormal noise power underflows the noise scales to 0:
        # rejected as input
        (DEGENERATE_SWEEP + ["--set", "sigma2=5e-324"], 1),
        (DEGENERATE_SWEEP + ["--set", "sigma2=1e-310"], 1),
        # all power to the center's private stream at 0 dB SNR: an e-fold
        # of the position average lands on a knee (d = 1)
        (["sweep", "--var", "rho", "--from", "0.1", "--to", "0.9", "--points", "2",
          "--mode", "all-mpc", "--methods", "analytic",
          "--set", "beta=1", "--set", "P=1e-5", "--set", "sigma2=1e-5"], 0),
        # equal common powers (cross = 0) with e1 sigma2 underflowing to 0:
        # the min-rate's partner scale at the least scale was 0 / 0
        (["sweep", "--var", "beta", "--from", "0.8", "--to", "0.84", "--points", "2",
          "--mode", "all-mpc", "--methods", "analytic",
          "--set", "P=4.8e-251", "--set", "sigma2=4.4e-89", "--set", "alpha=4.10",
          "--set", "r_c=1.4e45", "--set", "r_e=3.9e45", "--set", "r_0=3.8e46",
          "--set", "zeta=2.3e-276", "--set", "xi=2.6e-184", "--set", "rho=0"], 0),
        # s r_0^alpha is far below an ulp: the tail is e^-s, here 1
        (["coverage", "--kind", "common", "--cls", "edge", "--t", "6e-212", "--no-mc",
          "--set", "beta=0.44", *TINY_CELL], 0),
        (["sweep", "--var", "beta", "--from", "0.44", "--to", "0.45", "--points", "2",
          "--mode", "all-mpc", "--methods", "analytic",
          "--set", "zeta=6e-212", "--set", "xi=8.5e-175", *TINY_CELL], 0),
        # a cell wider than 64: ln(1 + d^alpha) bends at every doubling of
        # d, so the rule cuts the radii at 64 and 128 too
        (["sweep", "--var", "beta", "--from", "0.3", "--to", "0.7", "--points", "3",
          "--mode", "mpc-cc", "--methods", "analytic", "--set", "r_c=150",
          "--set", "r_e=160", "--set", "r_0=170", "--set", "sigma2=1e-9"], 0),
    ],
    ids=[
        "tiny-threshold", "nan-threshold", "tiny-noise", "tiny-xi", "tiny-radius", "least-noise",
        "subnormal-noise", "efold-on-knee", "partner-underflow",
        "tail-underflow-coverage", "tail-underflow-sweep", "wide-cell",
    ],
)
def test_degenerate_inputs_give_a_number_or_a_documented_exit(argv, code, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("numerical failure: ") and not out.exists()
        return
    # the documented 0/0 convention is the one note a finished run may print
    assert set(captured.err.splitlines()) <= {ZERO_ZERO_NOTE}
    cells = (
        [line.split(",")[8:] for line in out.read_text().splitlines()[1:]]
        if argv[0] == "sweep"
        else [captured.out.splitlines()[-1].split()]
    )
    assert cells and all(math.isfinite(float(c)) for row in cells for c in row)
    if argv[0] == "coverage":
        # both coverage cases ask at a level whose tail is 1 to the last bit
        assert float(cells[0][-1]) == 1.0


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


SMALL_ARGS = [
    "sweep",
    "--var", "beta", "--from", "0.3", "--to", "0.7", "--points", "2",
    "--mode", "all-mpc", "--methods", "mc", "--samples", "5000",
]


def small_sweep(tmp_path, name, extra):
    out = tmp_path / name
    assert cli.main(SMALL_ARGS + list(extra) + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_seed_env_matches_seed_flag(tmp_path, monkeypatch):
    flagged = small_sweep(tmp_path, "flag.csv", ["--seed", "7"])
    monkeypatch.setenv("RSCACHE_SEED", "7")
    from_env = small_sweep(tmp_path, "env.csv", [])
    monkeypatch.delenv("RSCACHE_SEED")
    stock = small_sweep(tmp_path, "stock.csv", [])
    assert from_env == flagged
    assert from_env != stock


def test_config_file_then_set_then_flag(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# pinned run\nsamples = 5000\nseed = 9\n")
    monkeypatch.delenv("RSCACHE_SEED", raising=False)

    base = SMALL_ARGS[:SMALL_ARGS.index("--samples")]  # config supplies samples
    out = tmp_path / "cfg.csv"
    assert cli.main(base + ["--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == small_sweep(tmp_path, "seed9.csv", ["--seed", "9"])

    # --set overrides the file, a dedicated flag overrides --set
    out2 = tmp_path / "set.csv"
    assert cli.main(
        base + ["--config", str(cfg), "--set", "seed=7", "--out", str(out2)]
    ) == 0
    assert out2.read_bytes() == small_sweep(tmp_path, "seed7.csv", ["--seed", "7"])

    out3 = tmp_path / "flagwins.csv"
    assert cli.main(
        base + ["--config", str(cfg), "--set", "seed=7",
                "--seed", "11", "--out", str(out3)]
    ) == 0
    assert out3.read_bytes() == small_sweep(tmp_path, "seed11.csv", ["--seed", "11"])


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(SMALL_ARGS + ["--config", str(cfg),
                                  "--out", str(tmp_path / "x.csv")]) == 1


def test_settings_keys_are_the_numeric_fields_of_the_settings(tmp_path, monkeypatch, capsys):
    # --set and config files take each int and float field of the three
    # settings dataclasses, as a value of the field's type, and no other key
    monkeypatch.delenv("RSCACHE_SEED", raising=False)
    numeric = {
        f.name: {"int": int, "float": float}[f.type]
        for cls in (SystemParams, PowerSplit, SimConfig)
        for f in dataclasses.fields(cls)
        if f.type in ("int", "float")
    }
    assert len(numeric) == 19
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = 1\n" for key in numeric))
    base = ["coverage", "--kind", "common", "--no-mc"]
    sets = [arg for key in numeric for arg in ("--set", f"{key}=1")]
    for argv in (base + sets, base + ["--config", str(cfg)]):
        values = cli._resolve(cli.build_parser().parse_args(argv))
        assert {key: type(value) for key, value in values.items()} == numeric
        assert all(value == 1 for value in values.values())
    # spawn is a SimConfig field, but no number
    cfg.write_text("spawn = 1\n")
    assert cli.main(base + ["--set", "spawn=1"]) == 1
    assert cli.main(base + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.count("unknown key 'spawn'") == 2


def test_coverage_table_matches_library(capsys):
    # inf and a negative threshold have the exact coverages 0 and 1
    thresholds = (0.1, 0.3, math.inf, -1.0)
    assert cli.main(["coverage", "--kind", "common", "--cls", "edge",
                     "--t", "0.1,0.3,inf,-1", "--no-mc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["t", "analytic"]
    params = SystemParams()
    split = PowerSplit(beta=0.5, rho=0.5)
    spec = dist_spec(SinrKind.COMMON, ReceiverClass.EDGE,
                     stream_powers(params.P, split), params)
    assert len(lines) == 2 + len(thresholds)
    for row, t in zip(lines[2:], thresholds):
        shown_t, shown_cov = (float(x) for x in row.split())
        assert shown_t == t
        assert shown_cov == pytest.approx(coverage(spec, t, params), rel=1e-8)
    assert [row.split()[1] for row in lines[-2:]] == ["0", "1"]


def test_coverage_with_simulation_reports_z(capsys):
    assert cli.main(["coverage", "--kind", "private", "--cls", "center",
                     "--t", "0.2", "--samples", "20000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["t", "analytic", "monte-carlo", "stderr", "z"]
    z = float(lines[2].split()[-1])
    assert abs(z) < 5.0


def test_figure_preset_writes_files(tmp_path, capsys):
    assert cli.main(["figure", "fig5", "--methods", "analytic",
                     "--out-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "fig5.csv: 95 data rows" in printed
    rows = (tmp_path / "fig5.csv").read_text().splitlines()
    assert len(rows) == 96
    assert all(",analytic," in r for r in rows[1:])


def test_figure_methods_keeps_the_presets_asymptotic_rows(tmp_path, capsys):
    # --methods picks the compared methods; fig9's high-power limits stay
    assert cli.main(["figure", "fig9", "--methods", "analytic",
                     "--out-dir", str(tmp_path)]) == 0
    assert "asymptotic sum rate" in capsys.readouterr().out
    for name, spec in figure_presets()["fig9"]:
        rows = (tmp_path / name).read_text().splitlines()[1:]
        methods = [row.split(",")[7] for row in rows]
        assert methods == ["analytic", "asymptotic"] * (spec.points * len(spec.subcases)), name


def test_figure_seed_env_then_flag(tmp_path, monkeypatch):
    # figure resolves its seed like sweep: RSCACHE_SEED beats the preset,
    # --seed beats RSCACHE_SEED
    def fig5(name, extra):
        out_dir = tmp_path / name
        argv = ["figure", "fig5", "--methods", "mc", "--samples", "2000",
                "--out-dir", str(out_dir)]
        assert cli.main(argv + extra) == 0
        return (out_dir / "fig5.csv").read_bytes()

    monkeypatch.delenv("RSCACHE_SEED", raising=False)
    seed7 = fig5("seed7", ["--seed", "7"])
    seed11 = fig5("seed11", ["--seed", "11"])
    monkeypatch.setenv("RSCACHE_SEED", "7")
    assert fig5("env7", []) == seed7
    assert fig5("env7_flag11", ["--seed", "11"]) == seed11
    assert seed7 != seed11


def _child(*args):
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _child("-m", "rscache.cli", "--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "placement" in proc.stdout


def test_import_loads_no_scipy_integrate():
    # scipy.integrate drags in scipy.optimize, sparse and linalg: about a
    # third of a second and 26 MB on every start, integrating or not
    proc = _child(
        "-c",
        "import sys, rscache, rscache.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("power", ["1e11", "1e16", "1e30", "1e100"])
def test_high_power_rows_match_the_limit_or_exit_2(power, tmp_path, capsys):
    # past P ~ 1e10 the finite-P rate sits within 1e-6 of its high-power
    # limit; the analytic rows must either agree with it or the run must
    # fail loudly, never write a finite row that missed the mass
    out = tmp_path / "x.csv"
    argv = ["sweep", "--var", "beta", "--from", "0.3", "--to", "0.7", "--points", "2",
            "--mode", "all-mpc", "--set", f"P={power}", "--asymptotic", "--out", str(out)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    if rc == 2:
        assert "numerical failure: log-scaled quadrature failed" in err
        assert not out.exists()
        return
    assert rc == 0, err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    limits = {(r[1], r[3]): r for r in rows if r[7] == "asymptotic"}
    analytic = [r for r in rows if r[7] == "analytic"]
    assert analytic and len(analytic) == len(limits)
    for row in analytic:
        limit = limits[row[1], row[3]]
        for col in (8, 9, 10):  # R_c, R_e, R_sum
            assert float(row[col]) == pytest.approx(float(limit[col]), rel=1e-6, abs=0.0)


def test_degenerate_bound_prints_one_plain_note(tmp_path, capsys):
    # rho = 0 switches streams off, so the 0/0 bound convention fires at
    # several call sites; the user sees it once, without a source path
    out = tmp_path / "x.csv"
    argv = ["sweep", "--var", "beta", "--from", "0", "--to", "1", "--points", "3",
            "--mode", "mpc-cc", "--set", "rho=0", "--asymptotic", "--out", str(out)]
    assert cli.main(argv) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "note: 0/0 SINR bound: stream and interferer powers both vanish; "
        "treating the bound as infinite by convention"
    ]
    assert len(out.read_text().splitlines()) == 31
