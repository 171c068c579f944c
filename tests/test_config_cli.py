import concurrent.futures
import importlib.util
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelatoms import CapacityError, ConfigError, DomainError, FrameConfig, NoRootError
from accelatoms import cli, config, runner
from accelatoms.config import (BEC_GRID_MAX, INITIAL_STATES, N_STEPS_MAX, OMEGA_RULES,
                               SCENARIOS, RunSpec, ScenarioConfig, expand_runs,
                               parse_config, validate)
from accelatoms.runner import fmt, run_scenario, write_csv

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

GOOD = """\
schema_version = 1
scenario = custom
n_atoms = 2
alphas = equal: 2     # both atoms at the reference acceleration
omega_rule = equal
t_max = 1
dt = 0.01
record_every = 5
"""


def test_parse_round_trip():
    cfg = parse_config(GOOD)
    assert cfg.scenario == "custom"
    assert cfg.n_atoms == 2
    assert cfg.alphas == "equal: 2"
    assert cfg.dt == 0.01
    assert validate(cfg) == []


def test_parse_syntax_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = custom\n")
    assert any("schema_version" in d for d in err.value.diagnostics)
    with pytest.raises(ConfigError) as err:
        parse_config("schema_version = 2\n")
    assert any("unsupported version" in d for d in err.value.diagnostics)
    with pytest.raises(ConfigError) as err:
        parse_config("schema_version = 1\nnot_a_key = 3\nn_atoms = x\nn_atoms = 2\n")
    joined = " | ".join(err.value.diagnostics)
    assert "unknown key" in joined and "n_atoms" in joined
    for removed in ("retain_states = true", "a_ref = 2"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"schema_version = 1\n{removed}\n")
        assert err.value.diagnostics == [f"line 2: unknown key {removed.split()[0]!r}"]


def test_validate_reports_field_level_diagnostics():
    cfg = parse_config(GOOD)
    bad = ScenarioConfig(**{**cfg.__dict__, "alphas": "1, 2, 3"})
    assert any("alphas" in d for d in validate(bad))
    for rule, count in (("mismatch: 0.2", 1), ("mismatch: 1, 2, 3", 3)):
        bad = ScenarioConfig(**{**cfg.__dict__, "alphas": rule})
        assert validate(bad) == ["alphas: the mismatch rule takes two values, base and "
                                 f"step; got {count}"]
    bad = ScenarioConfig(**{**cfg.__dict__, "dt": 2.0})
    assert any("dt" in d for d in validate(bad))
    bad = ScenarioConfig(**{**cfg.__dict__, "scenario": "counter_wedge",
                            "wedges": ("I", "I")})
    assert any("wedge II" in d for d in validate(bad))
    bad = ScenarioConfig(**{**cfg.__dict__, "concurrence_pair": (1, 5)})
    assert any("concurrence_pair" in d for d in validate(bad))
    bad = ScenarioConfig(**{**cfg.__dict__, "initial_state": "explicit",
                            "initial_pattern": "exg"})
    assert any("initial_pattern" in d for d in validate(bad))


def test_cli_run_and_outputs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    csv = out / "run.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,P_1,P_2,P_tot,R_tot,C_coh,C_conc,trace_err,min_eig"
    # 1 / 0.01 steps recorded every 5 plus the initial and final rows
    assert len(lines) == 1 + 21
    summary = (out / "summary.txt").read_text()
    assert "[run run]" in summary
    assert "liouvillian_zero_multiplicity" in summary


def test_cli_float_format_is_17_digits(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD)
    out = tmp_path / "out"
    cli.main(["run", str(cfg_path), "--out", str(out)])
    row = (out / "run.csv").read_text().splitlines()[3].split(",")
    value = float(row[1])
    assert row[1] == format(value, ".17g")


def test_cli_determinism_and_threads(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "schema_version = 1\nscenario = equal_acceleration_sweep\nn_atoms = 2\n"
        "sweep_alphas = 2, 4\nt_max = 1\ndt = 0.01\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["run", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg_path), "--out", str(out2), "--threads", "2"]) == 0
    for name in ("alpha_2.csv", "alpha_4.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_threads_start_at_most_one_worker_per_run(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "schema_version = 1\nscenario = equal_acceleration_sweep\nn_atoms = 2\n"
        "sweep_alphas = 2, 4\nt_max = 1\ndt = 0.01\n")
    config = parse_config(cfg_path.read_text())
    workers = []

    class SerialPool:  # records the worker count and maps in this process
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    run_scenario(config, tmp_path / "serial")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    run_scenario(config, tmp_path / "fanned", threads=64)
    assert workers == [2]
    for name in ("alpha_2.csv", "alpha_4.csv", "summary.txt"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "fanned" / name).read_bytes())
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(cfg_path), "--out", str(tmp_path / "x"), "--threads", value])
        assert exc.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err
    assert workers == [2] and not (tmp_path / "x").exists()


def test_cli_validate_exit_codes(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(GOOD)
    assert cli.main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    for alphas in ("1, 2", "mismatch: 0.2", "mismatch: 1, 2, 3"):
        bad.write_text(f"schema_version = 1\nscenario = custom\nn_atoms = 3\nalphas = {alphas}\n")
        assert cli.main(["validate", str(bad)]) == 2
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_cli_integration_failure_exit_code(tmp_path):
    cfg = tmp_path / "div.cfg"
    cfg.write_text("schema_version = 1\nscenario = custom\nn_atoms = 1\n"
                   "alphas = equal: 2\nt_max = 500\ndt = 50\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "d")]) == 3


def test_cli_rejects_a_step_that_would_overflow(tmp_path, capsys, recwarn):
    # omega_ref = 1e-300 makes the rates about 1e299, and at 4e-81 the product
    # L_hat @ w that a step forms before its factor dt reaches about
    # 1e80 * (9.5e76)^3; validate's dry run refuses both, as evolve would
    for omega_ref in ("1e-300", "4e-81"):
        _assert_one_diagnostic(tmp_path, capsys,
                               f"schema_version = 1\nomega_ref = {omega_ref}\n", "run run")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_rejects_a_subnormal_reference_frequency(tmp_path, capsys, recwarn):
    # omega_ref = 1e-320 makes the thermal occupation 1/expm1(beta omega) overflow
    _assert_one_diagnostic(tmp_path, capsys, "schema_version = 1\nomega_ref = 1e-320\n",
                           "run run")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_numerical_breakdown_mid_run_exits_3_with_its_step(tmp_path, capsys):
    # the full state passes the -1e-6 hard floor while a reduced pair state
    # dips below concurrence's -1e-9 floor: an integration failure at a step
    path = tmp_path / "breakdown.cfg"
    path.write_text("schema_version = 1\nscenario = custom\nn_atoms = 3\ngamma0 = 3\n"
                    "alphas = mismatch: 0.5, 0.366\nomega_rule = resonant\n"
                    "initial_state = all_ground\nt_max = 20\ndt = 0.2\nrecord_every = 1\n")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["integration failure: reduced pair state: density matrix has eigenvalue "
                   "-2.649e-08 below -1e-09 (step 1)"]


def test_write_csv_rows_match_fmt(tmp_path):
    rows = [[5e-324, -0.0, math.nan, math.inf, -math.inf],
            [3, -7, 2**60, np.float64(0.1), np.int64(12)],
            np.array([1e-310, 2.5e300, -1.0 / 3.0, np.float32(0.1), 1e16])]
    path = tmp_path / "rows.csv"
    write_csv(path, list("abcde"), rows)
    expected = ["a,b,c,d,e"] + [",".join(fmt(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_write_csv_writes_a_table_in_row_blocks(tmp_path, monkeypatch):
    # the table is formatted a block of rows at a time, with the bytes of the
    # one-pass text, for a 2-D array and a list of rows alike
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.normal(size=10) * 10.0 ** rng.integers(-300, 300, size=10),
                             np.arange(10), rng.integers(0, 2, size=10) == 1])
    monkeypatch.setattr(runner, "_CSV_BLOCK_ROWS", 3)
    for rows in (table, list(table), table[:0]):
        path = tmp_path / "table.csv"
        write_csv(path, ["t", "n", "agree"], rows)
        expected = "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == ("t,n,agree\n" + expected).encode()


def test_master_equation_is_computed_once_per_run(tmp_path, monkeypatch):
    # validate's dry run and the run itself share one (H, rates), read-only
    calls = []
    same_wedge_rates = config.same_wedge_rates

    def counted(frame, atoms):
        calls.append(atoms)
        return same_wedge_rates(frame, atoms)

    monkeypatch.setattr(config, "same_wedge_rates", counted)
    config._master_equation.cache_clear()
    text = SWEEP.replace("sweep_alphas = 2, 4", "sweep_alphas = 2, 4, 6")
    run_scenario(parse_config(text), tmp_path)
    assert len(calls) == 3
    H, rates = expand_runs(parse_config(text))[0].master_equation()
    assert len(calls) == 3
    assert not H.flags.writeable and not rates.gamma_minus_plus.flags.writeable
    config._master_equation.cache_clear()


def _fresh_interpreter(code: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter, so that no other
    test's imports count."""
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_presets_load_scipy_only_for_a_sector_above_128_blocks(tmp_path):
    # fig2, counter and bec_design step, record and analyse in numpy; fig4's
    # two unlumped 924-pair case_c sectors are stepped as scipy CSR
    code = ("import sys\nfrom accelatoms import cli\n"
            "for name in ('fig2', 'counter', 'bec_design', 'fig4'):\n"
            f"    assert cli.main(['preset', name, '--out', {str(tmp_path)!r} + '/' + name]) == 0\n"
            "    print('loaded after', name + ':', "
            "*sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    loaded = [line.split()[2:] for line in _fresh_interpreter(code)
              if line.startswith("loaded after")]
    assert loaded[:3] == [["fig2:"], ["counter:"], ["bec_design:"]]
    assert loaded[3][0] == "fig4:" and "scipy.sparse" in loaded[3]
    assert (tmp_path / "bec_design" / "nb_grid.csv").exists()


def test_a_run_imports_nothing_after_validation(tmp_path):
    # the import cost belongs to set-up: a serial run of a lumped dynamics
    # scenario (with its spectral analysis) and of a condensate design adds no
    # module once `config` and `runner` are imported and the config validated
    sweep = SWEEP.replace("n_atoms = 2", "n_atoms = 3")
    code = ("import sys\nfrom accelatoms import config, runner\n"
            "print('scipy at import:', *[m for m in sys.modules if m.startswith('scipy')])\n"
            f"for i, text in enumerate(({sweep!r}, {_small_bec_design()!r})):\n"
            "    cfg = config.parse_config(text)\n"
            "    assert config.validate(cfg) == []\n"
            "    before = set(sys.modules)\n"
            f"    runner.run_scenario(cfg, {str(tmp_path)!r} + f'/{{i}}')\n"
            "    print('new modules:', *sorted(set(sys.modules) - before))\n")
    assert _fresh_interpreter(code) == ["scipy at import:", "new modules:", "new modules:"]
    assert (tmp_path / "0" / "alpha_2.csv").exists() and (tmp_path / "1" / "nb_grid.csv").exists()


def test_cli_integration_failure_under_worker_processes(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text("schema_version = 1\nscenario = equal_acceleration_sweep\nn_atoms = 1\n"
                   "sweep_alphas = 2, 4\nt_max = 200\ndt = 50\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "s")]) == 3
    serial = capsys.readouterr().err
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "p"), "--threads", "2"]) == 3
    assert capsys.readouterr().err == serial
    assert serial.startswith("integration failure:") and "(step " in serial


SWEEP = ("schema_version = 1\nscenario = equal_acceleration_sweep\nn_atoms = 2\n"
         "sweep_alphas = 2, 4\nt_max = 1\ndt = 0.01\n")


def _small_bec_design() -> str:
    text = (Path(cli.__file__).parent / "presets" / "bec_design.cfg").read_text()
    for name, value in (("k_points", 50), ("waist_points", 10), ("nb_grid_points", 4)):
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", text, flags=re.M)
    return text


@pytest.mark.parametrize("text", [SWEEP, _small_bec_design()], ids=["sweep", "bec_design"])
def test_run_scenario_writes_exactly_the_paths_it_returns(tmp_path, monkeypatch, text):
    # Path.write_text opens through Path.open too, so every file written is seen
    written = []
    open_path = Path.open

    def recording(path, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            written.append(path)
        return open_path(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording)
    out = tmp_path / "out"
    paths = run_scenario(parse_config(text), out)
    assert written == paths  # each once, in the returned order
    assert sorted(out.iterdir()) == sorted(paths)
    assert paths[-1].name == "summary.txt"


@pytest.mark.parametrize("key, values, label", [
    ("sweep_alphas", "2.0000001, 2.0000002", "alpha_2"),
    ("sweep_alphas", "4, 2, 4", "alpha_4"),
    ("deltas_resonant", "0.6, 0.6000001", "case_c_dalpha_0p6"),
])
def test_colliding_run_labels_are_rejected(tmp_path, capsys, key, values, label):
    # run labels keep 6 significant digits; two runs with one label would
    # write one CSV file, the second over the first
    scenario = "equal_acceleration_sweep" if key == "sweep_alphas" else "mismatch_cases"
    path = tmp_path / "collide.cfg"
    path.write_text(f"schema_version = 1\nscenario = {scenario}\nn_atoms = 2\n"
                    f"{key} = {values}\nt_max = 1\ndt = 0.01\n")
    diags = validate(parse_config(path.read_text()))
    assert len(diags) == 1 and diags[0].startswith(f"{key}:") and repr(label) in diags[0]
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == diags
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {diags[0]}"]
    assert not (tmp_path / "o").exists()


def _assert_one_diagnostic(tmp_path, capsys, text, key):
    # validate and run both exit 2 with the one diagnostic naming `key`, and
    # run writes nothing
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    diags = validate(parse_config(text))
    assert len(diags) == 1 and diags[0].startswith(f"{key}:")
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == diags
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {diags[0]}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("k_min", "1e-160"), ("k_min", "1e-170"),
                                        ("k_min", "1e-200"), ("k_max", "1e100")])
def test_wavenumbers_without_a_representable_mode_are_rejected(tmp_path, capsys, key, value):
    # k^2/(2m) underflows to a subnormal or to 0 at k_min, or E overflows at k_max
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", _small_bec_design(), flags=re.M)
    _assert_one_diagnostic(tmp_path, capsys, text, key)


@pytest.mark.parametrize("text", [
    "scenario = custom\nn_atoms = 2\nwedges = II, banana\n",
    "scenario = equal_acceleration_sweep\nn_atoms = 2\nsweep_alphas = 2, 4\nwedges = I, II\n"])
def test_wedges_outside_counter_wedge_are_rejected(tmp_path, capsys, text):
    # every other dynamics scenario puts all atoms in wedge I, so a wedges
    # key there would be ignored
    _assert_one_diagnostic(tmp_path, capsys, f"schema_version = 1\n{text}", "wedges")


@pytest.mark.parametrize("text", [
    "scenario = mismatch_cases\nomega_rule = explicit\nomegas = 5, 7\n",
    "scenario = custom\nomega_rule = equal\nomegas = 5, -7\n",
    "scenario = custom\ninitial_state = all_excited\ninitial_pattern = xyz\n"],
    ids=["mismatch_cases_omegas", "equal_rule_omegas", "initial_pattern"])
def test_keys_that_no_run_reads_are_rejected(tmp_path, capsys, text):
    # mismatch_cases sets each run's omega rule itself, only the explicit rule
    # reads omegas, and only the explicit initial state reads initial_pattern
    key = "initial_pattern" if "initial_pattern" in text else "omegas"
    _assert_one_diagnostic(tmp_path, capsys, f"schema_version = 1\n{text}", key)


@pytest.mark.parametrize("key, value", [("tweezer_coupling", "1e200"),
                                        ("nb_depth_max", "1e300"), ("nb_waist_max", "1e300"),
                                        ("nb_waist_min", "1e-300")])
def test_condensate_values_beyond_the_float_range_are_refused(tmp_path, capsys, recwarn,
                                                              key, value):
    # |C_1|^2 overflows, or a grid cell's closed-form count leaves int64 or its
    # kinetic term 1/(2 M h^2) overflows or underflows: validate's dry run
    # refuses it, with no garbage count or numpy warning on the way
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", _small_bec_design(), flags=re.M)
    _assert_one_diagnostic(tmp_path, capsys, text,
                           "tweezers" if key == "tweezer_coupling" else "nb_grid")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("value", ["1e30", "100"])
def test_a_bound_state_grid_too_coarse_for_its_wells_is_refused(tmp_path, capsys, value):
    # deep wells hold more states than the 1501-point grid resolves, so the
    # numeric count would be the grid's: at 1e30 it read 801-803 states where
    # the closed form gives about 1e15; at 100 the widest waist's spacing is
    # 0.31 of the well's shortest half wavelength
    text = re.sub(r"^nb_depth_max = .*$", f"nb_depth_max = {value}", _small_bec_design(),
                  flags=re.M)
    _assert_one_diagnostic(tmp_path, capsys, text, "nb_grid")
    assert "too coarse" in validate(parse_config(text))[0]


def test_a_window_sweep_without_a_variational_width_is_rejected(tmp_path, capsys):
    # both listed waists have a variational width, but the window sweep's
    # upper waists (to 1165) do not: (V0 M w^2)^2 grows with the waist
    text = _small_bec_design()
    for key, value in (("tweezer_depth", "1.2e6"), ("tweezer_waists", "720, 730")):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    _assert_one_diagnostic(tmp_path, capsys, text, "tweezers")
    assert "no variational-width root" in validate(parse_config(text))[0]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_reference_frequency_is_rejected(tmp_path, capsys, value):
    # the equal and resonant omega rules, and so every mismatch_cases run, read omega_ref
    _assert_one_diagnostic(tmp_path, capsys, f"schema_version = 1\nomega_ref = {value}\n",
                           "omega_ref")


@pytest.mark.parametrize("key, value", [("tweezer_waists", "5, 1.12"),
                                        ("tweezer_waists", "-1, 1.12"), ("eps_res", "0")])
def test_condensate_inputs_the_detector_mapping_refuses_are_rejected(tmp_path, capsys,
                                                                     key, value):
    # a waist outside the two-level window (0.8, 1.333) holds other than two
    # bound states; the mapped detector model needs eps_res > 0
    text = re.sub(rf"^{key} = .*$", "", _small_bec_design(), flags=re.M)
    _assert_one_diagnostic(tmp_path, capsys, f"{text}{key} = {value}\n", key)


def _ramp(step):
    return [0.2 + step * j for j in range(6)]


@pytest.mark.parametrize("preset, expected", [
    ("fig2", [(f"alpha_{a}", [float(a)] * 6, [1.0] * 6, ("I",) * 6) for a in (2, 4, 6, 8, 10)]),
    ("fig4", [("case_a", [2.0] * 6, [1.0] * 6, ("I",) * 6),
              ("case_b", _ramp(0.6), [1.0] * 6, ("I",) * 6),
              # resonant: every red-shifted frequency (a / alpha_j) omega_j is omega_ref
              ("case_c_dalpha_0p6", _ramp(0.6), [a / 0.2 for a in _ramp(0.6)], ("I",) * 6),
              ("case_c_dalpha_0p03", _ramp(0.03), [a / 0.2 for a in _ramp(0.03)],
               ("I",) * 6)]),
    ("counter", [("counter", [2.0, 2.0], [1.0, 1.0], ("I", "II"))]),
])
def test_expand_runs_pairs_each_label_with_its_physics(preset, expected):
    runs = expand_runs(parse_config(cli._preset_text(preset)))
    assert [(run.label, [atom.alpha for atom in run.atoms], [atom.omega for atom in run.atoms],
             tuple(atom.wedge for atom in run.atoms)) for run in runs] == expected
    dt, initial = (0.001, "gg") if preset == "counter" else (0.005, "e" * 6)
    for run in runs:
        assert isinstance(run, RunSpec)
        assert run.frame == FrameConfig(a=run.atoms[0].alpha, eps_res=1e-6, gamma0=0.1)
        assert [atom.g for atom in run.atoms] == [1.0] * len(run.atoms)
        assert (run.initial, run.t_max, run.dt, run.record_every, run.pair) == (
            initial, 20.0, dt, 10, (0, 1))


def test_shipped_and_benchmarked_configs_pass_validate():
    # the a-priori step bound and the dry runs refuse nothing that the presets
    # or the benchmark workloads (read from perfbench, not edited) run
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = [cli._preset_text(name) for name in cli.PRESETS]
    texts += [workloads.config_text(name, workloads.params(name, seed))
              for name in workloads.WORKLOADS for seed in range(4)]
    assert len(texts) == 16
    for text in texts:
        assert validate(parse_config(text)) == []


def test_bec_design_runs_far_above_the_healing_scale(tmp_path):
    # at k = 1e10 sqrt(m mu), (eps + mu)/(2E) rounds to 1/2; v must not come
    # from subtracting the two
    path = tmp_path / "k.cfg"
    path.write_text(re.sub(r"^k_max = .*$", "k_max = 1e10", _small_bec_design(), flags=re.M))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    k, E, u, v, S = np.loadtxt(tmp_path / "o" / "dispersion.csv", delimiter=",",
                               skiprows=1).T
    assert k[-1] == 1e10
    assert np.all(v > 0) and np.all(S > 0) and np.all(S <= 1.0)
    assert np.abs(u * u - v * v - 1.0).max() < 1e-12
    assert np.allclose(S, np.sqrt(k * k / 2.0 / E), rtol=1e-15, atol=0)


def test_validate_rejects_nonpositive_explicit_omegas(tmp_path):
    cfg = parse_config(GOOD)
    bad = ScenarioConfig(**{**cfg.__dict__, "omega_rule": "explicit", "omegas": (1.0, -1.0)})
    assert any("omegas" in d for d in validate(bad))
    path = tmp_path / "omegas.cfg"
    path.write_text(GOOD.replace("omega_rule = equal", "omega_rule = explicit\nomegas = 1, -1"))
    assert cli.main(["validate", str(path)]) == 2
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_validate_rejects_partial_final_step(tmp_path):
    path = tmp_path / "steps.cfg"
    path.write_text(GOOD.replace("dt = 0.01", "dt = 0.3"))  # t_max = 1
    assert cli.main(["validate", str(path)]) == 2
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


def test_validate_rejects_negative_couplings(tmp_path):
    path = tmp_path / "coupling.cfg"
    path.write_text(GOOD + "couplings = -1, 1\n")
    assert any(d.startswith("couplings:") for d in validate(parse_config(path.read_text())))
    assert cli.main(["validate", str(path)]) == 2
    assert cli.main(["run", str(path), "--out", str(tmp_path / "c")]) == 2


def _assert_rejected(tmp_path, capsys, text, field):
    # validate and run both exit 2 with a one-line diagnostic naming the field
    path = tmp_path / "nonfinite.cfg"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and f"{field}: must be a finite number" in out[0]
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and f"{field}:" in err[0]


def test_nonfinite_t_max_is_rejected(tmp_path, capsys):
    for value in ("inf", "nan", "-inf"):
        _assert_rejected(tmp_path, capsys, GOOD.replace("t_max = 1", f"t_max = {value}"),
                         "t_max")


def test_nonfinite_dt_is_rejected(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, GOOD.replace("dt = 0.01", "dt = nan"), "dt")


def test_nonfinite_couplings_are_rejected(tmp_path, capsys):
    for value in ("nan, 1", "1, inf", "equal: nan"):
        _assert_rejected(tmp_path, capsys, GOOD + f"couplings = {value}\n", "couplings")


def test_nonfinite_alphas_are_rejected(tmp_path, capsys):
    for value in ("equal: nan", "equal: inf", "2, nan"):
        _assert_rejected(tmp_path, capsys, GOOD.replace("alphas = equal: 2", f"alphas = {value}"),
                         "alphas")


def test_nonfinite_gamma0_is_rejected(tmp_path, capsys):
    _assert_rejected(tmp_path, capsys, GOOD + "gamma0 = nan\n", "gamma0")


def test_validate_caps_atom_number(tmp_path):
    assert validate(ScenarioConfig(n_atoms=10)) == []
    path = tmp_path / "big.cfg"
    path.write_text(GOOD.replace("n_atoms = 2", "n_atoms = 30"))
    assert any(d.startswith("n_atoms:") for d in validate(parse_config(path.read_text())))
    assert cli.main(["validate", str(path)]) == 2
    assert cli.main(["run", str(path), "--out", str(tmp_path / "b")]) == 2


def test_cli_maps_run_path_errors_to_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    for exc in (DomainError("coupling weight g must be >= 0"),
                NoRootError("no bound state"), CapacityError("too many atoms")):
        def fail(*args, exc=exc, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "run_scenario", fail)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err == f"input error: {exc}\n"


def test_every_field_parses_back_from_its_default_text():
    default = ScenarioConfig()

    def text(value):
        return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)

    lines = [f"{f.name} = {text(getattr(default, f.name))}" for f in fields(ScenarioConfig)]
    assert parse_config("\n".join(lines)) == default


def test_cli_unknown_preset(tmp_path):
    assert cli.main(["preset", "fig9", "--out", str(tmp_path)]) == 2


def test_cli_counter_scenario(tmp_path):
    cfg = tmp_path / "counter.cfg"
    cfg.write_text(
        "schema_version = 1\nscenario = counter_wedge\nn_atoms = 2\n"
        "alphas = equal: 2\nwedges = I, II\ninitial_state = all_ground\n"
        "t_max = 1\ndt = 0.01\n")
    out = tmp_path / "c"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "counter.csv").exists()


def test_cli_seed_flag_accepted(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD)
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "s"),
                     "--seed", "42"]) == 0


def _values_for(field) -> st.SearchStrategy[str]:
    """Value text for one schema key: valid values next to non-finite,
    out-of-range and malformed ones. The keys that set the cost of a run are
    held to N <= 3 atoms, at most 10 steps and grids of at most 3 points, or
    to a grid above its cap, which is rejected before anything runs."""
    odd = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "x"]
    special = {
        "schema_version": ["1", "1", "1", "2", "x"],
        "scenario": [*SCENARIOS, "bogus"],
        "n_atoms": ["1", "2", "3", "0", "-1", "11", "x"],
        "t_max": ["0.05", "0.1", "0", "-1", "nan", "inf", "x"],
        "dt": ["0.01", "0.025", "0.03", "0.05", "1", "0", "-0.01", "nan"],
        "record_every": ["1", "3", "0", "-1", "x"],
        "k_points": ["2", "3", "1", "-1", str(BEC_GRID_MAX["k_points"] + 1)],
        "waist_points": ["2", "3", "1", "-1", str(BEC_GRID_MAX["waist_points"] + 1)],
        "nb_grid_points": ["2", "3", "1", "-1", str(BEC_GRID_MAX["nb_grid_points"] + 1)],
        "alphas": ["equal: 2", "equal: nan", "equal: -1", "mismatch: 0.2, 0.6",
                   "mismatch: 1", "1, 2", "2, 2, 2", "nan, 1", "-1, 1", "", "equal:"],
        "couplings": ["equal: 1", "equal: inf", "equal: -1", "0.5, 1", "1, 1, 1", "nan, 1",
                      "-1, 1", ""],
        "omega_rule": [*OMEGA_RULES, "bogus"],
        "initial_state": [*INITIAL_STATES, "bogus"],
        "initial_pattern": ["", "e", "eg", "gge", "x"],
        "wedges": ["", "I", "I, II", "II, I", "I, I, II", "III"],
        "concurrence_pair": ["1, 2", "1, 3", "2, 2", "0, 1", "1", "x"],
    }
    by_type = {
        "int": ["1", "2", *odd],
        "float": ["0.1", "0.5", "1", "2", *odd],
        "tuple[float, ...]": ["", "1", "1, 2", "0.5, 1.5, 2", "nan", "-1, 2", "0"],
    }
    return st.sampled_from(special.get(field.name) or by_type[field.type])


_SCHEMA = {f.name: _values_for(f) for f in fields(ScenarioConfig) if f.name != "output_path"}


@settings(max_examples=60)
@given(st.fixed_dictionaries({"schema_version": _SCHEMA["schema_version"]},
                             optional={k: v for k, v in _SCHEMA.items()
                                       if k != "schema_version"}))
def test_random_config_text_exits_0_2_or_3(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.cfg"
        path.write_text(text)
        validated = cli.main(["validate", str(path)])
        ran = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert validated in (0, 2) and ran in (0, 2, 3)
        assert (validated == 2) == (ran == 2)  # validate says what run will say


def test_validate_caps_step_count(tmp_path, capsys):
    assert validate(ScenarioConfig(t_max=N_STEPS_MAX * 1e-3, dt=1e-3)) == []
    # 1e299 steps, and a step count that overflows to inf
    for t_max, dt in (("0.1", "1e-300"), ("1e300", "1e-10")):
        path = tmp_path / "tiny_dt.cfg"
        path.write_text(GOOD.replace("t_max = 1", f"t_max = {t_max}")
                        .replace("dt = 0.01", f"dt = {dt}"))
        diags = validate(parse_config(path.read_text()))
        assert len(diags) == 1 and diags[0].startswith("dt:") and str(N_STEPS_MAX) in diags[0]
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == diags
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {diags[0]}"]


def test_validate_caps_bec_grids(tmp_path, capsys):
    preset = (Path(cli.__file__).parent / "presets" / "bec_design.cfg").read_text()
    assert validate(parse_config(preset)) == []
    for name, cap in BEC_GRID_MAX.items():
        path = tmp_path / "grid.cfg"
        path.write_text(re.sub(rf"^{name} = .*$", f"{name} = {cap + 1}", preset, flags=re.M))
        diags = validate(parse_config(path.read_text()))
        assert diags == [f"{name}: must be <= {cap}, got {cap + 1}"]
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == diags
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {diags[0]}"]
        assert not (tmp_path / "o").exists()
