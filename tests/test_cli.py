"""CLI: exit codes, deterministic CSV output, header round-trip."""
import numpy as np
import pytest

import kickedtop as kt
from kickedtop import cli


def _read(path):
    return path.read_text().splitlines()


def _columns(lines):
    for line in lines:
        if not line.startswith("#"):
            return line.split(",")
    raise AssertionError("no column row")


def _data_rows(lines):
    out = []
    header_seen = False
    for line in lines:
        if line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        out.append(line.split(","))
    return out


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "spectrum" in capsys.readouterr().out


def test_missing_command_exits_two():
    assert cli.run([]) == 2


def test_config_error_exits_two(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli.run(["doqs", "--bins", "1", "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.run(["spectrum", "--j", "-3", "--out", out]) == 2
    assert cli.run(["sweep", "--out", out]) == 2  # sweep needs a kappa grid
    assert cli.run(["sweep", "--kappa-sweep", "1:0:0.1", "--out", out]) == 2


def test_numerical_error_exits_three(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # kappa at the bifurcation kappa_c(0.1), the root of kappa - p + p kappa^2 / 12
    code = cli.run(["critical", "--kappa", "0.0999168", "--p", "0.1", "--j", "10", "--out", out])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--j", "10"],
    ["sweep", "--j", "5", "--kappa-sweep", "0:0.3:0.1"],
    ["doqs", "--j", "10", "--bins", "21", "--n-max", "30"],
    ["critical", "--j", "10"],
    ["protocol", "--j", "5", "--K", "60", "--points", "3"],
], ids=lambda argv: argv[0])
def test_spectrum_deterministic(tmp_path, capsys, argv):
    out = tmp_path / "spec.csv"
    assert cli.run([*argv, "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.run([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == first  # byte-identical rerun
    if argv[0] != "spectrum":
        return
    lines = _read(out)
    assert _columns(lines) == ["kappa", "branch", "index", "quasienergy"]
    rows = _data_rows(lines)
    exact = [r for r in rows if r[1] == "exact"]
    eff = [r for r in rows if r[1] == "effective"]
    assert len(exact) == len(eff) == 21  # dim = 2j + 1
    eps = np.array([float(r[3]) for r in exact])
    assert np.all(np.diff(eps) >= 0)
    assert np.all((eps >= -np.pi) & (eps < np.pi))


def test_header_roundtrip(tmp_path):
    out = tmp_path / "d.csv"
    assert cli.run([
        "doqs", "--j", "10.5", "--kappa", "0.17", "--p", "0.09",
        "--bins", "33", "--n-max", "11", "--sigma", "0.013", "--out", str(out),
    ]) == 0
    cfg = cli.RunConfig.from_header_lines(_read(out))
    assert cfg.command == "doqs"
    assert cfg.j == 10.5 and cfg.kappa == 0.17 and cfg.p == 0.09
    assert cfg.bins == 33 and cfg.n_max == 11 and cfg.sigma == 0.013
    assert cfg.out == str(out)
    # 17 significant digits survive the round trip bit-for-bit
    assert cli.RunConfig.from_header_lines(cfg.header_lines()) == cfg


def test_doqs_columns(tmp_path):
    out = tmp_path / "d.csv"
    assert cli.run(["doqs", "--j", "10", "--bins", "21", "--out", str(out)]) == 0
    cols = _columns(_read(out))
    assert cols == ["eps", "rho_hist", "rho_analytic", "N_hist", "N_analytic"]
    out2 = tmp_path / "d2.csv"
    assert cli.run(["doqs", "--j", "10", "--bins", "21", "--n-max", "30", "--out", str(out2)]) == 0
    cols2 = _columns(_read(out2))
    assert cols2 == cols + ["rho_traces", "N_traces"]
    rows = _data_rows(_read(out2))
    assert len(rows) == 21
    assert max(float(r[2]) for r in rows) <= cli.RHO_CLIP


def test_sweep_grid(tmp_path, monkeypatch):
    argv = ["sweep", "--j", "5", "--kappa-sweep", "0:0.5:0.1"]
    out = tmp_path / "s.csv"
    assert cli.run([*argv, "--out", str(out)]) == 0
    rows = _data_rows(_read(out))
    kappas = sorted({float(r[0]) for r in rows})
    assert len(kappas) == 6  # endpoints inclusive
    assert kappas[0] == 0.0 and abs(kappas[-1] - 0.5) < 1e-12
    # the sweep builds one kick for every kappa; each spectrum equals the
    # library's build_floquet one to the printed digit
    ops = kt.build_operators(kt.SpinSystem(5.0))
    for kappa in kappas:
        spec = kt.diagonalize_floquet(kt.build_floquet(ops, kt.KickedTopParams(p=0.1, kappa=kappa)))
        exact = [float(r[3]) for r in rows if float(r[0]) == kappa and r[1] == "exact"]
        assert exact == spec.quasienergies.tolist()
    # the same rows in the calling thread and in a thread pool
    for workers in ("1", "3"):
        monkeypatch.setenv("KICKEDTOP_WORKERS", workers)
        out_w = tmp_path / f"s{workers}.csv"
        assert cli.run([*argv, "--out", str(out_w)]) == 0
        assert _data_rows(_read(out_w)) == rows


def test_protocol_rows(tmp_path):
    out = tmp_path / "p.csv"
    assert cli.run([
        "protocol", "--j", "5", "--K", "60", "--points", "3",
        "--branch", "S->m", "--out", str(out),
    ]) == 0
    lines = _read(out)
    assert _columns(lines) == [
        "branch", "gamma_re", "gamma_im", "E_mean",
        "xbar_quantum", "xbar_classical", "P_r",
    ]
    rows = _data_rows(lines)
    assert len(rows) == 3
    assert all(r[0] == "S->m" for r in rows)


def test_protocol_below_bifurcation_exits_two(tmp_path, capsys):
    # kappa = 0.05 < kappa_c ~ 0.1: the landscape has no saddle to start from
    out = tmp_path / "p.csv"
    assert cli.run(["protocol", "--kappa", "0.05", "--j", "5", "--out", str(out)]) == 2
    assert "config error [kappa]" in capsys.readouterr().err
    assert not out.exists()


def test_critical_output(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.run(["critical", "--j", "10", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "saddle" in printed and "maximum" in printed
    rows = _data_rows(_read(out))
    assert len(rows) == 4
