"""Command line interface: deterministic CSV emission for single runs and
parameter sweeps.

Every run writes one CSV file whose leading '#' comment lines carry the full
configuration (they round-trip to a RunConfig) and the package version.
Values are printed with 17 significant digits; reruns of the same
configuration are byte-identical.  Exit codes: 0 success, 2 configuration
error, 3 numerical error.
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .doqs import doqs_from_traces, doqs_histogram, integrated_doqs
from .effective import (
    build_effective_hamiltonian,
    effective_spectrum,
)
from .floquet import (
    KickedTopParams,
    _twist_phases,
    build_floquet,
    diagonalize_floquet,
    floquet_kick,
    floquet_traces,
)
from .landscape import CensusError, analytic_doqs, find_critical_points
from .protocol import NoSaddleError, run_protocol
from .spin import SpinSystem, build_operators

__all__ = ["RunConfig", "ConfigError", "run", "main"]

RHO_CLIP = 1e3  # analytic DOQS clip for file output; the library value is unclipped


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """One CLI run.  Defaults are the j=40, p=0.1, kappa=0.2 study point."""

    command: str
    j: float = 40.0
    kappa: float = 0.2
    p: float = 0.1
    T: float = 1.0
    bins: int = 161
    n_max: int = 0  # 0: no trace-series columns
    sigma: float = 0.02
    K: int = 700
    n_points: int = 40
    branch: str = "both"
    kappa_sweep: tuple = ()  # (start, stop, step) or empty
    out: str = ""

    def validate(self) -> "RunConfig":
        try:
            SpinSystem(self.j)
        except ValueError as exc:
            raise ConfigError("j", str(exc)) from None
        if not self.T > 0:
            raise ConfigError("T", f"T must be positive, got {self.T}")
        if self.command in ("doqs",):
            if self.bins < 2:
                raise ConfigError("bins", f"bins must be >= 2, got {self.bins}")
            if self.n_max < 0:
                raise ConfigError("n-max", f"n-max must be >= 0, got {self.n_max}")
            if not self.sigma > 0:
                raise ConfigError("sigma", f"sigma must be positive, got {self.sigma}")
        if self.command == "protocol":
            if self.K < 1:
                raise ConfigError("K", f"K must be >= 1, got {self.K}")
            if self.n_points < 2:
                raise ConfigError("points", f"points must be >= 2, got {self.n_points}")
            if self.branch not in ("S->m", "S->M", "both"):
                raise ConfigError("branch", f"branch must be S->m, S->M or both, got {self.branch!r}")
        if self.kappa_sweep:
            start, stop, step = self.kappa_sweep
            if not step > 0:
                raise ConfigError("kappa-sweep", f"sweep step must be positive, got {step}")
            if stop < start:
                raise ConfigError("kappa-sweep", f"sweep stop {stop} is below start {start}")
        if self.command == "sweep" and not self.kappa_sweep:
            raise ConfigError("kappa-sweep", "sweep requires --kappa-sweep start:stop:step")
        return self

    # -- header round-trip ------------------------------------------------
    def header_lines(self) -> list:
        lines = [f"# kickedtop_version = {__version__}", f"# command = {self.command}"]
        for key in ("j", "kappa", "p", "T"):
            lines.append(f"# {key} = {_fmt(getattr(self, key))}")
        for key in ("bins", "n_max", "K", "n_points"):
            lines.append(f"# {key} = {getattr(self, key)}")
        lines.append(f"# sigma = {_fmt(self.sigma)}")
        lines.append(f"# branch = {self.branch}")
        sweep = ":".join(_fmt(x) for x in self.kappa_sweep) if self.kappa_sweep else "none"
        lines.append(f"# kappa_sweep = {sweep}")
        lines.append(f"# out = {self.out}")
        return lines

    @staticmethod
    def from_header_lines(lines) -> "RunConfig":
        kv = {}
        for line in lines:
            line = line.strip()
            if not line.startswith("#"):
                continue
            body = line[1:].strip()
            if "=" not in body:
                continue
            key, _, value = body.partition("=")
            kv[key.strip()] = value.strip()
        sweep_s = kv.get("kappa_sweep", "none")
        sweep = () if sweep_s == "none" else tuple(float(x) for x in sweep_s.split(":"))
        return RunConfig(
            command=kv["command"],
            j=float(kv["j"]),
            kappa=float(kv["kappa"]),
            p=float(kv["p"]),
            T=float(kv["T"]),
            bins=int(kv["bins"]),
            n_max=int(kv["n_max"]),
            sigma=float(kv["sigma"]),
            K=int(kv["K"]),
            n_points=int(kv["n_points"]),
            branch=kv["branch"],
            kappa_sweep=sweep,
            out=kv.get("out", ""),
        ).validate()


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _workers() -> int:
    raw = os.environ.get("KICKEDTOP_WORKERS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError("KICKEDTOP_WORKERS", f"not an integer: {raw!r}") from None
    if n < 1:
        raise ConfigError("KICKEDTOP_WORKERS", f"must be >= 1, got {n}")
    return n


def _write_csv(cfg: RunConfig, columns, rows):
    with open(cfg.out, "w", newline="") as fh:
        for line in cfg.header_lines():
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sweep_values(sweep) -> np.ndarray:
    start, stop, step = sweep
    n = int(np.floor((stop - start) / step + 0.5 + 1e-12))
    return start + step * np.arange(n + 1)


# -- subcommands ----------------------------------------------------------

def _spectrum_rows(cfg: RunConfig):
    ops = build_operators(SpinSystem(cfg.j))
    kappas = _sweep_values(cfg.kappa_sweep) if cfg.kappa_sweep else np.array([cfg.kappa])
    kick = floquet_kick(ops, cfg.p)  # kappa-independent: one per run

    def one(kappa: float):
        par = KickedTopParams(p=cfg.p, kappa=float(kappa), T=cfg.T)
        spec = diagonalize_floquet(kick * _twist_phases(ops, par.kappa), par.T)
        eff = effective_spectrum(build_effective_hamiltonian(ops, par), par)
        rows = [(kappa, "exact", i, e) for i, e in enumerate(spec.quasienergies)]
        rows += [(kappa, "effective", i, e) for i, e in enumerate(np.sort(eff.folded))]
        return rows

    workers = min(_workers(), len(kappas))
    if workers == 1:  # in this thread: a pool thread would add a malloc arena of its own
        per_kappa = list(map(one, kappas))
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            per_kappa = list(ex.map(one, kappas))
    return ("kappa", "branch", "index", "quasienergy"), [row for rows in per_kappa for row in rows]


def _doqs_rows(cfg: RunConfig):
    par = KickedTopParams(p=cfg.p, kappa=cfg.kappa, T=cfg.T)
    ops = build_operators(SpinSystem(cfg.j))
    spec = diagonalize_floquet(build_floquet(ops, par), par.T)
    hist = doqs_histogram(spec, cfg.bins)
    ana = analytic_doqs(par, cfg.j, hist.grid)
    ana = replace(ana, rho=np.clip(ana.rho, -RHO_CLIP, RHO_CLIP))
    ana = integrated_doqs(ana)
    columns = ["eps", "rho_hist", "rho_analytic", "N_hist", "N_analytic"]
    series = [hist.grid, hist.rho, ana.rho, hist.n_integrated, ana.n_integrated]
    if cfg.n_max > 0:
        traces = floquet_traces(spec, cfg.n_max)
        tr = integrated_doqs(doqs_from_traces(traces, hist.grid, cfg.sigma, spec.dim, par.T))
        columns += ["rho_traces", "N_traces"]
        series += [tr.rho, tr.n_integrated]
    return tuple(columns), list(zip(*series))


def _critical_rows(cfg: RunConfig):
    par = KickedTopParams(p=cfg.p, kappa=cfg.kappa, T=cfg.T)
    cps = find_critical_points(par, cfg.j)
    rows = [
        (c.kind, c.bloch.x, c.bloch.y, c.bloch.z, c.E_unfolded, c.eps_folded, c.beta, c.amplitude)
        for c in cps.points
    ]
    header = ("kind", "X", "Y", "Z", "E_unfolded", "eps_folded", "beta", "A")
    print(f"{'kind':<10}{'X':>12}{'Y':>12}{'Z':>12}{'E_unfolded':>14}{'eps_folded':>14}{'beta':>6}{'A':>12}")
    for r in rows:
        print(f"{r[0]:<10}{r[1]:>12.6f}{r[2]:>12.6f}{r[3]:>12.6f}{r[4]:>14.6f}{r[5]:>14.6f}{r[6]:>6d}{r[7]:>12.6f}")
    return header, rows


def _protocol_rows(cfg: RunConfig):
    par = KickedTopParams(p=cfg.p, kappa=cfg.kappa, T=cfg.T)
    branches = ("S->m", "S->M") if cfg.branch == "both" else (cfg.branch,)
    rows = []
    for br in branches:
        try:
            results = run_protocol(par, cfg.j, br, cfg.n_points, cfg.K)
        except NoSaddleError as exc:  # kappa below kappa_c is a configuration error
            raise ConfigError("kappa", str(exc)) from None
        for res in results:
            rows.append(
                (
                    res.branch,
                    res.gamma0.gamma.real,
                    res.gamma0.gamma.imag,
                    res.mean_quasienergy,
                    res.xbar_quantum,
                    res.xbar_classical,
                    res.participation_ratio,
                )
            )
    header = ("branch", "gamma_re", "gamma_im", "E_mean", "xbar_quantum", "xbar_classical", "P_r")
    return header, rows


_COMMANDS = {
    "spectrum": _spectrum_rows,
    "sweep": _spectrum_rows,
    "doqs": _doqs_rows,
    "critical": _critical_rows,
    "protocol": _protocol_rows,
}


def _build_parser() -> argparse.ArgumentParser:
    """Options left off the command line are absent from the namespace, so
    the RunConfig fields are the only defaults."""
    parser = argparse.ArgumentParser(
        prog="kickedtop",
        description="Kicked-top Floquet spectra, quasienergy landscape, DOQS and measurement protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("--j", type=float, help="total angular momentum (half-integer)")
        sp.add_argument("--p", type=float, help="kick rotation strength")
        sp.add_argument("--kappa", type=float, help="twist strength")
        sp.add_argument("--T", type=float, help="driving period")
        sp.add_argument("--out", type=str, help="output CSV path (default: <command>.csv)")
        return sp

    add("spectrum", "exact and effective quasienergy spectra at one parameter point")

    sp = add("sweep", "quasienergy spectra over a kappa grid")
    sp.add_argument(
        "--kappa-sweep",
        type=str,
        help="kappa grid start:stop:step, endpoints inclusive within half a step",
    )

    sp = add("doqs", "histogram and analytic DOQS on one quasienergy grid")
    sp.add_argument("--bins", type=int, help="histogram bin count")
    sp.add_argument("--n-max", type=int, help="add trace-series columns, summing n <= n_max")
    sp.add_argument("--sigma", type=float, help="trace-series smoothing width")

    add("critical", "critical points of the quasienergy landscape")

    sp = add("protocol", "time-averaged magnetization protocol along landscape paths")
    sp.add_argument("--K", type=int, help="number of kicks averaged over")
    sp.add_argument("--points", dest="n_points", metavar="POINTS", type=int, help="initial states per branch")
    sp.add_argument("--branch", type=str, choices=["S->m", "S->M", "both"])
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    fields = vars(ns)
    raw_sweep = fields.pop("kappa_sweep", "")
    if raw_sweep:
        parts = raw_sweep.split(":")
        if len(parts) != 3:
            raise ConfigError("kappa-sweep", f"expected start:stop:step, got {raw_sweep!r}")
        try:
            fields["kappa_sweep"] = tuple(float(x) for x in parts)
        except ValueError:
            raise ConfigError("kappa-sweep", f"non-numeric sweep bound in {raw_sweep!r}") from None
    fields["out"] = fields.get("out") or f"{ns.command}.csv"
    return RunConfig(**fields).validate()


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _config_from_args(ns)
        columns, rows = _COMMANDS[cfg.command](cfg)
        _write_csv(cfg, columns, rows)
    except ConfigError as exc:
        print(f"config error [{exc.field}]: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, CensusError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    sys.exit(run(argv))
