import json

import numpy as np
import pytest

from billiard2d import cli


def test_parse_empty_gives_standard_defaults():
    cfg = cli.parse_config("")
    assert cfg.epsilon == 0.05
    assert cfg.gamma == pytest.approx(5.0 * cfg.kappa)
    assert cfg.hbar == 1.0
    assert cfg.task == "populations"
    assert cfg.initial == (0, 1)
    assert cfg.targets == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert cfg.t_end == pytest.approx(5.0 / cfg.kappa)


def test_parse_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        cli.parse_config("epsilon = -0.1")


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 3"):
        cli.parse_config("mu = 1.0\n# comment\nbogus = 7\n")


def test_parse_rejects_out_of_range_t_end():
    with pytest.raises(ValueError, match="t_end"):
        cli.parse_config("kappa = 1.0\nt_end = 500\n")


@pytest.mark.parametrize("kappa", [0.0, -0.1])
def test_static_or_shrinking_box_rejected(kappa, tmp_path):
    with pytest.raises(ValueError, match="kappa"):
        cli.parse_config(f"kappa = {kappa}\n")
    with pytest.raises(ValueError, match="kappa"):
        cli.run(cli.RunConfig(kappa=kappa, out=str(tmp_path / "x.csv")))


def test_parse_task_and_initial():
    cfg = cli.parse_config("task = populations\ninitial = 0 1\n")
    assert cfg.task == "populations"
    assert cfg.initial == (0, 1)


def test_parse_targets_list_and_comments():
    cfg = cli.parse_config(
        "targets = 1,1; 1,2; -1,1   # three targets\nepsilon = 0.01\n")
    assert cfg.targets == [(1, 1), (1, 2), (-1, 1)]
    assert cfg.epsilon == 0.01


def test_fig2_default_targets():
    cfg = cli.parse_config("initial = 2 1")
    assert cfg.targets == [(3, 1), (3, 2), (1, 1), (1, 2)]


def test_modes_task_row_count(tmp_path):
    out = tmp_path / "modes.csv"
    cfg = cli.parse_config(f"task = modes\nm_max = 2\nn_max = 2\nout = {out}\n")
    assert cli.run(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,n,zero,k,E,A"
    assert len(lines) == 1 + 10  # m in -2..2, n in 1..2
    assert out.with_suffix(".csv.json").exists()
    sidecar = json.loads(out.with_suffix(".csv.json").read_text())
    assert sidecar["m_max"] == 2


def test_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = "task = modes\nm_max = 1\nn_max = 2\n"
    cli.run(cli.parse_config(base + f"out = {out1}\n"))
    cli.run(cli.parse_config(base + f"out = {out2}\n"))
    assert out1.read_bytes() == out2.read_bytes()


def test_populations_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = "task = populations\nn_samples = 4\nt_end = 5\n"
    cli.run(cli.parse_config(base + f"out = {out1}\n"))
    cli.run(cli.parse_config(base + f"out = {out2}\n"))
    assert out1.read_bytes() == out2.read_bytes()


def test_populations_zero_epsilon(tmp_path):
    out = tmp_path / "pops.csv"
    cfg = cli.parse_config(
        f"task = populations\nepsilon = 0\nn_samples = 5\nt_end = 10\nout = {out}\n")
    assert cli.run(cfg) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 5)
    assert np.max(np.abs(rows[:, 1:])) == 0.0


def test_populations_default_run_structure(tmp_path):
    out = tmp_path / "pops.csv"
    cfg = cli.parse_config(
        f"task = populations\nn_samples = 8\nt_end = 20\nout = {out}\n")
    assert cli.run(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,P(1,1),P(1,2),P(1,3),P(1,4)"
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # time in 1/kappa units, strictly increasing
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert rows[-1, 0] == pytest.approx(20 * cfg.kappa)
    assert np.all(rows[0, 1:] == 0.0)
    assert np.max(rows[:, 1:]) > 0.0


def test_pantograph_task(tmp_path):
    out = tmp_path / "pan.csv"
    cfg = cli.parse_config(
        f"task = pantograph\nn_samples = 4\nt_end = 5\nepsilon = 0\nout = {out}\n")
    assert cli.run(cfg) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 5
    assert np.all(rows[1:, 4] < 0)  # dilating box loses energy


def test_energy_rate_task(tmp_path):
    out = tmp_path / "er.csv"
    cfg = cli.parse_config(
        f"task = energy-rate\nn_samples = 9\nt_end = 4\nepsilon = 0\nout = {out}\n")
    assert cli.run(cfg) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    # contact column tracks the coarse FD column
    mid = slice(2, -2)
    assert np.allclose(rows[mid, 2], rows[mid, 3], rtol=5e-3)


def test_main_error_is_machine_readable(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("epsilon = -1\n")
    status = cli.main(["modes", "--config", str(cfgfile)])
    assert status == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert "epsilon" in record["detail"]


def test_main_out_override(tmp_path):
    out = tmp_path / "override.csv"
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text("task = modes\nm_max = 1\nn_max = 1\n")
    status = cli.main(["modes", "--config", str(cfgfile), "--out", str(out)])
    assert status == 0
    assert out.exists()
