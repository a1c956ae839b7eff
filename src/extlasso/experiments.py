"""Phase-transition sweeps and error-scaling experiments.

A sweep cell is (p, sparsity regime, theta); theta is the rescaled sample
size defined through n / ln(n) = 4 theta k ln(p - k).  Each cell runs
`trials` independent instances with corruption on a fraction of the
observations, solves the joint program, and counts a success when BOTH
estimated signed supports exactly match the truth (a per-vector breakdown
is recorded too; solver non-convergence counts as failure and is tallied).

Trials derive their seeds from (master_seed, cell_index, trial_index)
through a counter-based generator, and aggregation visits trials in index
order, so results are byte-identical for any worker count.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .datagen import SparsityRegime, gen_instance, n_from_theta
from .diagnostics import recovery_metrics
from .model import DEFAULT_ZERO_TOL, InputError, check_count
from .regparams import (IDENTITY_REPORT, LambdaPair, TheoryInputs,
                        lambdas_gaussian_design, lambdas_simulation,
                        lambdas_support_recovery, magnitude_thresholds)
from .solver import SolverConfig, solve_extended_lasso

CSV_SCHEMA = "extlasso/sweep-csv-v1"
RESULT_SCHEMA = "extlasso/sweep-result-v1"
_WILSON_Z = 1.959963984540054  # two-sided 95%

_DEFAULT_THETA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 31))


@dataclass(frozen=True)
class SweepConfig:
    p_list: tuple[int, ...] = (128, 256, 512)
    regimes: tuple[str, ...] = ("sublinear", "linear", "fractional")
    theta_grid: tuple[float, ...] = _DEFAULT_THETA_GRID
    trials: int = 100
    sigma: float = 0.1
    s_fraction: float = 0.5          # s = floor(s_fraction * n)
    lambda_family: str = "simulation"  # simulation|gaussian_design|support_recovery
    gamma_incoherence: float = 0.5     # support_recovery family only
    master_seed: int = 7
    corruption_mode: str = "gross"
    e_scale: float = 1.0
    floor_beta: float | str = 0.0    # numeric, or "f_beta" for the threshold
    floor_e: float | str = 0.0       # numeric, or "f_e"
    zero_tol: float = DEFAULT_ZERO_TOL
    lambda_floor: float = 1e-8       # lambda_beta when the family degenerates
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if any(b <= a for a, b in zip(self.theta_grid, self.theta_grid[1:])):
            raise InputError("theta_grid must be strictly increasing")
        if not 0 <= self.s_fraction <= 1:
            raise InputError("s_fraction must lie in [0, 1]")
        if self.lambda_family not in ("simulation", "gaussian_design",
                                      "support_recovery"):
            raise InputError(f"unknown lambda family {self.lambda_family!r}")

    def cells(self) -> list["CellSpec"]:
        out = []
        idx = 0
        for p in self.p_list:
            for regime in self.regimes:
                k = SparsityRegime(regime).k_of(p)
                for theta in self.theta_grid:
                    n = n_from_theta(theta, k, p)
                    s = int(math.floor(self.s_fraction * n))
                    out.append(CellSpec(index=idx, p=p, regime=regime, k=k,
                                        theta=theta, n=n, s=s))
                    idx += 1
        return out


@dataclass(frozen=True)
class CellSpec:
    index: int
    p: int
    regime: str
    k: int
    theta: float
    n: int
    s: int


@dataclass(frozen=True)
class TrialRecord:
    cell_index: int
    trial_index: int
    converged: bool
    success_beta: bool
    success_e: bool
    l2_error: float
    linf_error: float
    iterations: int

    @property
    def success(self) -> bool:
        return self.converged and self.success_beta and self.success_e


@dataclass(frozen=True)
class CellResult:
    p: int
    regime: str
    k: int
    theta: float
    n: int
    s: int
    trials: int
    successes: int          # both signed supports exact (and converged)
    successes_beta: int
    successes_e: int
    nonconverged: int
    mean_l2_error: float
    mean_linf_error: float
    mean_iterations: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class SweepResult:
    schema: str
    config: dict
    cells: list

    def curve(self, p: int, regime: str) -> list:
        return [c for c in self.cells if c.p == p and c.regime == regime]


def _family_lambdas(cfg: SweepConfig, n: int, p: int, s: int) -> LambdaPair:
    if cfg.lambda_family == "simulation":
        pair = lambdas_simulation(cfg.sigma, n, p)
        unit = lambdas_simulation(1.0, n, p)
    elif cfg.lambda_family == "gaussian_design":
        pair = lambdas_gaussian_design(cfg.sigma, n, p)
        unit = lambdas_gaussian_design(1.0, n, p)
    else:
        eta = max(s / n, 1.0 / math.log(n))
        pair = lambdas_support_recovery(cfg.sigma, n, p, eta, IDENTITY_REPORT,
                                        cfg.gamma_incoherence)
        unit = lambdas_support_recovery(1.0, n, p, eta, IDENTITY_REPORT,
                                        cfg.gamma_incoherence)
    if pair.degenerate:
        # sigma = 0: keep the family's cone weight, shrink the scale to the
        # configured floor (exact-recovery regime).
        lb = cfg.lambda_floor
        return LambdaPair(lb, lb * unit.ratio)
    return pair


def _cell_floors(cfg: SweepConfig, cell: CellSpec,
                 pair: LambdaPair) -> tuple[float, float]:
    fb = cfg.floor_beta
    fe = cfg.floor_e
    if fb == 0.0 and fe == 0.0:
        return 0.0, 0.0
    if fb == "f_beta" or fe == "f_e":
        inputs = TheoryInputs(n=cell.n, p=cell.p, k=cell.k, s=cell.s,
                              sigma=cfg.sigma,
                              gamma_incoherence=cfg.gamma_incoherence,
                              covariance_report=IDENTITY_REPORT)
        f_beta, f_e = magnitude_thresholds(inputs, pair.lambda_beta,
                                           pair.lambda_e)
        if fb == "f_beta":
            fb = f_beta
        if fe == "f_e":
            fe = f_e
    return float(fb), float(fe)


def cell_instance(cfg: SweepConfig, cell: CellSpec, trial: int):
    """The instance and penalty pair one trial of a cell works on."""
    pair = _family_lambdas(cfg, cell.n, cell.p, cell.s)
    fb, fe = _cell_floors(cfg, cell, pair)
    inst = gen_instance(cell.n, cell.p, k=cell.k, regime=cell.regime,
                        s=cell.s, sigma=cfg.sigma,
                        corruption_mode=cfg.corruption_mode,
                        seed=(cfg.master_seed, cell.index, trial),
                        e_scale=cfg.e_scale, beta_floor=fb, e_floor=fe)
    return inst, pair


def solve_cell_trial(cfg: SweepConfig, cell: CellSpec, trial: int):
    """Generate and solve one trial of a cell; returns (instance, solution)."""
    inst, pair = cell_instance(cfg, cell, trial)
    sol = solve_extended_lasso(inst, pair.lambda_beta, pair.lambda_e,
                               cfg.solver)
    return inst, sol


def run_trial(cfg: SweepConfig, cell: CellSpec, trial: int) -> TrialRecord:
    inst, sol = solve_cell_trial(cfg, cell, trial)
    met = recovery_metrics(inst, sol, cfg.zero_tol)
    return TrialRecord(
        cell_index=cell.index, trial_index=trial, converged=sol.converged,
        success_beta=met.signed_support_beta, success_e=met.signed_support_e,
        l2_error=met.l2_total,
        linf_error=max(met.linf_beta, met.linf_e),
        iterations=sol.iterations,
    )


def _trial_task(args):
    cfg, cell, trial = args
    return run_trial(cfg, cell, trial)


def _aggregate(cfg: SweepConfig, cells, records) -> SweepResult:
    by_cell = {c.index: [] for c in cells}
    for rec in records:
        by_cell[rec.cell_index].append(rec)
    out = []
    for cell in cells:
        recs = sorted(by_cell[cell.index], key=lambda r: r.trial_index)
        # sums accumulate in trial order so reruns are bit-identical
        l2 = linf = iters = 0.0
        succ = sb = se = nonconv = 0
        for r in recs:
            l2 += r.l2_error
            linf += r.linf_error
            iters += r.iterations
            succ += r.success
            sb += r.success_beta
            se += r.success_e
            nonconv += not r.converged
        t = len(recs)
        out.append(CellResult(
            p=cell.p, regime=cell.regime, k=cell.k, theta=cell.theta,
            n=cell.n, s=cell.s, trials=t, successes=succ, successes_beta=sb,
            successes_e=se, nonconverged=nonconv, mean_l2_error=l2 / t,
            mean_linf_error=linf / t, mean_iterations=iters / t,
        ))
    cfg_dict = asdict(cfg)
    cfg_dict["solver"] = asdict(cfg.solver)
    for key in ("p_list", "regimes", "theta_grid"):
        cfg_dict[key] = list(cfg_dict[key])  # JSON-stable snapshot
    return SweepResult(schema=RESULT_SCHEMA, config=cfg_dict, cells=out)


def _worker_pool(n_workers: int):
    """A pool of n_workers fresh (spawned) processes with one BLAS thread
    each, so that the workers do not oversubscribe the cores.  The thread
    variables are set to 1 in the environment the workers start with, before
    they import numpy, and restored in this process.  multiprocessing is
    imported here, so that a serial sweep does not pay for it."""
    from multiprocessing import get_context

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        return get_context("spawn").Pool(processes=n_workers)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def run_sweep(cfg: SweepConfig, n_workers: int = 1,
              progress=None) -> SweepResult:
    """Run every (cell, trial) and aggregate; deterministic in master_seed.

    n_workers > 1 runs the trials on a _worker_pool of that many processes;
    InputError unless n_workers is an integer >= 1.
    """
    check_count("n_workers", n_workers)
    cells = cfg.cells()
    tasks = [(cfg, cell, t) for cell in cells for t in range(cfg.trials)]
    records = []
    with (_worker_pool(n_workers) if n_workers > 1
          else nullcontext()) as pool:
        results = (map(_trial_task, tasks) if pool is None
                   else pool.imap_unordered(_trial_task, tasks, chunksize=4))
        for i, rec in enumerate(results, 1):
            records.append(rec)
            if progress and i % 25 == 0:
                progress(i, len(tasks))
    return _aggregate(cfg, cells, records)


# ---------------------------------------------------------------------------
# Error scaling in n.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorScalingResult:
    rows: list            # (n, mean l2_total error)
    slope: float          # log-log OLS slope of error vs n


def error_scaling_sweep(p: int = 100, k: int = 5, s: int = 40,
                        sigma: float = 0.5,
                        n_grid: tuple = (400, 800, 1600, 3200),
                        trials: int = 20,
                        master_seed: int = 7) -> ErrorScalingResult:
    """Mean parameter error versus n at fixed (p, k, s), with the explicit
    Gaussian-design lambdas (floored at sigma = 0 as in a sweep); fits the
    log-log slope.

    The corruption count s is held fixed: with s proportional to n the
    corruption term of the error scales like sqrt(s/n * ln n), which does
    not decay, and no 1/sqrt(n) rate exists to measure.
    """
    family = SweepConfig(sigma=sigma, lambda_family="gaussian_design")
    rows = []
    for ci, n in enumerate(n_grid):
        pair = _family_lambdas(family, n, p, s)
        total = 0.0
        for t in range(trials):
            inst = gen_instance(n, p, k=k, s=s, sigma=sigma,
                                seed=(master_seed, 90_000 + ci, t))
            sol = solve_extended_lasso(inst, pair.lambda_beta, pair.lambda_e)
            total += recovery_metrics(inst, sol).l2_total
        rows.append((n, total / trials))
    if len(rows) >= 2:
        xs = np.log([r[0] for r in rows])
        ys = np.log([max(r[1], 1e-300) for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = math.nan  # a slope needs at least two grid points
    return ErrorScalingResult(rows=rows, slope=slope)


# ---------------------------------------------------------------------------
# Curve statistics and file emission.
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int,
                    z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def isotonic_fit(values) -> np.ndarray:
    """Pool-adjacent-violators fit of a non-decreasing sequence."""
    vals = [float(v) for v in values]
    level = []   # (value, weight) blocks
    for v in vals:
        level.append([v, 1.0])
        while len(level) > 1 and level[-2][0] > level[-1][0]:
            v2, w2 = level.pop()
            v1, w1 = level.pop()
            level.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for v, w in level:
        out.extend([v] * int(round(w)))
    return np.array(out)


def monotone_trend_residual(rates) -> float:
    """Max deviation of the success curve from its isotonic fit."""
    rates = np.asarray(list(rates), dtype=np.float64)
    if rates.size == 0:
        return 0.0
    return float(np.max(np.abs(rates - isotonic_fit(rates))))


def curve_collapse_spread(result: SweepResult, regime: str,
                          theta_min: float = 0.5) -> float:
    """Max over theta >= theta_min of the success-rate spread across p."""
    by_theta = {}
    for c in result.cells:
        if c.regime == regime and c.theta >= theta_min:
            by_theta.setdefault(c.theta, []).append(c.success_rate)
    spread = 0.0
    for rates in by_theta.values():
        if len(rates) >= 2:
            spread = max(spread, max(rates) - min(rates))
    return spread


def _fmt(x) -> str:
    """Exact round-trip decimal text for floats (repr is shortest-exact)."""
    return repr(float(x))


def curve_rows(result: SweepResult, p: int, regime: str) -> list:
    rows = []
    for c in result.curve(p, regime):
        lo, hi = wilson_interval(c.successes, c.trials)
        rows.append((c.theta, c.n, c.success_rate, lo, hi))
    return rows


def emit_curves(result: SweepResult, out_dir, fmt: str = "csv") -> list:
    """One CSV (and optionally one SVG) per (p, regime); returns the paths."""
    if fmt not in ("csv", "svg-data"):
        raise InputError(f"unknown emit format {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seen = sorted({(c.p, c.regime) for c in result.cells},
                  key=lambda t: (t[0], t[1]))
    cfg = result.config
    if not seen:  # empty result: still emit a header-only CSV
        seen = [(pv, rv) for pv in cfg.get("p_list", [])
                for rv in cfg.get("regimes", [])] or [(0, "none")]
    paths = []
    for p, regime in seen:
        rows = curve_rows(result, p, regime)
        path = out_dir / f"curve_p{p}_{regime}.csv"
        lines = [f"# schema={CSV_SCHEMA}", "theta,n,success_rate,ci_low,ci_high"]
        for theta, n, rate, lo, hi in rows:
            lines.append(",".join([_fmt(theta), str(n), _fmt(rate),
                                   _fmt(lo), _fmt(hi)]))
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
        if fmt == "svg-data":
            svg = _curve_svg(rows)
            spath = out_dir / f"curve_p{p}_{regime}.svg"
            spath.write_text(svg)
            paths.append(spath)
    return paths


def read_curve_csv(path) -> list:
    """Parse a curve CSV back into (theta, n, rate, lo, hi) rows."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("theta"):
            continue
        theta, n, rate, lo, hi = line.split(",")
        rows.append((float(theta), int(n), float(rate), float(lo), float(hi)))
    return rows


def _curve_svg(rows, width: int = 480, height: int = 320,
               margin: int = 40) -> str:
    """Minimal standalone SVG polyline of success rate vs theta."""
    body = []
    body.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{width}" height="{height}" '
                f'viewBox="0 0 {width} {height}">')
    x0, y0 = margin, height - margin
    x1, y1 = width - margin, margin
    body.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                f'stroke="black"/>')
    body.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                f'stroke="black"/>')
    if rows:
        thetas = [r[0] for r in rows]
        tmin, tmax = min(thetas), max(thetas)
        span = (tmax - tmin) or 1.0
        pts = []
        for theta, _, rate, _, _ in rows:
            px = x0 + (theta - tmin) / span * (x1 - x0)
            py = y0 - rate * (y0 - y1)
            pts.append(f"{px:.2f},{py:.2f}")
        body.append(f'<polyline fill="none" stroke="steelblue" '
                    f'stroke-width="2" points="{" ".join(pts)}"/>')
    body.append("</svg>")
    return "\n".join(body)


# ---------------------------------------------------------------------------
# Result (de)serialization for the CLI.
# ---------------------------------------------------------------------------

def sweep_result_to_dict(result: SweepResult) -> dict:
    return {"schema": result.schema, "config": result.config,
            "cells": [asdict(c) for c in result.cells]}


def sweep_result_from_dict(d: dict) -> SweepResult:
    if d.get("schema") != RESULT_SCHEMA:
        raise InputError(f"unrecognized sweep result schema {d.get('schema')!r}")
    cells = [CellResult(**c) for c in d["cells"]]
    return SweepResult(schema=d["schema"], config=d["config"], cells=cells)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: an int for float,
    a list for tuple[x, ...], an object for a dataclass; never a bool."""
    if isinstance(value, bool):
        return False
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0])
                                               for v in value)
    if is_dataclass(hint):
        return isinstance(value, dict)
    allowed = get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed)


def _check_keys(where: str, d: dict, cls) -> None:
    """InputError naming any key of d that cls has no field for, or whose
    value does not fit the field's type."""
    hints = get_type_hints(cls)
    unknown = sorted(set(d) - set(hints))
    if unknown:
        raise InputError(f"unknown {where} keys: {', '.join(unknown)}")
    for key, value in d.items():
        if not _has_type(value, hints[key]):
            raise InputError(f"{where} key {key!r} has the wrong type: "
                             f"{value!r}")


def sweep_config_from_dict(d: dict) -> SweepConfig:
    """A SweepConfig from its JSON form; InputError names any unknown key
    and any value of the wrong type."""
    _check_keys("sweep config", d, SweepConfig)
    d = dict(d)
    solver = d.pop("solver", None)
    kwargs = {}
    for key in ("p_list", "regimes", "theta_grid"):
        if key in d:
            kwargs[key] = tuple(d.pop(key))
    kwargs.update(d)
    if solver:
        _check_keys("solver", solver, SolverConfig)
        kwargs["solver"] = SolverConfig(**solver)
    return SweepConfig(**kwargs)
