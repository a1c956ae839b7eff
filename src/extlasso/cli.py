"""Command-line interface: generate / solve / verify / params / sweep / report.

Files are JSON (instances, solutions, reports, sweep configs/results) and
CSV/SVG (curves).  `-` means stdin/stdout for instance and solution paths.
Exit codes: 0 success, 2 parse/input error, 3 numeric failure,
4 certification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import CovarianceSpec, gen_instance
from .diagnostics import kkt_check, primal_dual_witness, recovery_metrics
from .experiments import (emit_curves, run_sweep, sweep_config_from_dict,
                          sweep_result_from_dict, sweep_result_to_dict)
from .model import (InputError, NumericError, ProblemInstance, check_count,
                    instance_from_dict, solution_from_dict)
from .regparams import (TheoryInputs, covariance_report, lambdas_gaussian_design,
                        lambdas_noise_oracle, lambdas_simulation,
                        lambdas_support_recovery, magnitude_thresholds,
                        sample_size_achievable, sample_size_unachievable)
from .solver import SolverConfig, solve_extended_lasso

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATION = 4


def _log_config(name: str, ns: argparse.Namespace) -> None:
    resolved = {k: v for k, v in vars(ns).items() if k != "func"}
    print(f"[extlasso] {name} config: {json.dumps(resolved, default=str)}",
          file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _covariance_from_flag(flag: str, p: int) -> CovarianceSpec:
    if flag == "identity":
        return CovarianceSpec("identity", p=p)
    if flag.startswith("ar1:"):
        return CovarianceSpec("ar1", p=p, rho=float(flag.split(":", 1)[1]))
    raise InputError(f"unknown covariance {flag!r} (use identity or ar1:RHO)")


def _cmd_generate(ns) -> int:
    spec = _covariance_from_flag(ns.covariance, ns.p)
    inst = gen_instance(ns.n, ns.p, k=ns.k, regime=ns.regime, s=ns.s,
                        sigma=ns.sigma, corruption_mode=ns.corruption_mode,
                        spec=spec, seed=ns.seed, e_scale=ns.e_scale,
                        beta_floor=ns.beta_floor, e_floor=ns.e_floor)
    _write_text(ns.output, inst.to_json())
    return EXIT_OK


def _solver_config(ns) -> SolverConfig:
    return SolverConfig(max_iters=ns.max_iters, tol_kkt=ns.tol_kkt)


def _resolve_lambdas(ns, inst: ProblemInstance) -> tuple[float, float]:
    if (ns.lambda_beta is None) != (ns.lambda_e is None):
        raise InputError("pass both --lambda-beta and --lambda-e, or neither")
    if ns.lambda_beta is not None:
        return ns.lambda_beta, ns.lambda_e
    sigma = ns.sigma
    if sigma is None and inst.truth is not None:
        sigma = inst.truth.sigma
    if sigma is None:
        raise InputError("pass --sigma or explicit --lambda-beta/--lambda-e")
    if ns.lambda_family == "simulation":
        pair = lambdas_simulation(sigma, inst.n, inst.p)
    elif ns.lambda_family == "gaussian_design":
        pair = lambdas_gaussian_design(sigma, inst.n, inst.p)
    elif ns.lambda_family == "noise_oracle":
        pair = lambdas_noise_oracle(inst)
    else:
        raise InputError(f"unknown lambda family {ns.lambda_family!r}")
    if pair.degenerate:
        raise InputError("degenerate (zero) lambdas; pass them explicitly")
    return pair.lambda_beta, pair.lambda_e


def _cmd_solve(ns) -> int:
    inst = instance_from_dict(json.loads(_read_text(ns.instance)))
    lam_b, lam_e = _resolve_lambdas(ns, inst)
    sol = solve_extended_lasso(inst, lam_b, lam_e, _solver_config(ns))
    _write_text(ns.output, sol.to_json())
    if not sol.converged:
        print(f"[extlasso] warning: not converged ({sol.stop}, "
              f"kkt residual {sol.kkt_residual:.3e})", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(ns) -> int:
    inst = instance_from_dict(json.loads(_read_text(ns.instance)))
    sol = solution_from_dict(json.loads(_read_text(ns.solution)))
    report = kkt_check(inst, sol, tol=ns.tol_kkt)
    payload = {
        "stationarity_residual": report.stationarity_residual,
        "max_offsupport_zbeta": report.max_offsupport_zbeta,
        "max_offsupport_ze": report.max_offsupport_ze,
        "strict_feasible": report.strict_feasible,
        "sign_consistent": report.sign_consistent,
        "certified": report.certified,
    }
    if inst.truth is not None:
        payload["recovery"] = asdict(recovery_metrics(inst, sol))
        wit = primal_dual_witness(inst, inst.truth.T, inst.truth.S,
                                  sol.lambda_beta, sol.lambda_e)
        payload["witness"] = {
            "step3_pass": wit.step3_pass,
            "step4_pass": wit.step4_pass,
            "failing_condition": wit.failing_condition,
            "max_offsupport_zbeta": float(np.max(np.abs(
                wit.dual_offsupport_beta), initial=0.0)),
            "max_offsupport_ze": float(np.max(np.abs(
                wit.dual_offsupport_e), initial=0.0)),
        }
    _write_text(ns.output, json.dumps(payload, indent=2))
    return EXIT_OK if payload["certified"] else EXIT_CERTIFICATION


def _cmd_params(ns) -> int:
    inst = instance_from_dict(json.loads(_read_text(ns.instance)))
    if inst.truth is None:
        raise InputError("params requires an instance with truth")
    t = inst.truth
    cov = inst.meta.covariance or {"kind": "identity", "p": inst.p}
    kwargs = {k: v for k, v in cov.items() if k in ("kind", "p", "rho")}
    if cov.get("matrix") is not None:
        kwargs["matrix"] = np.array(cov["matrix"])
    spec = CovarianceSpec(**kwargs)
    report = covariance_report(spec.materialize(inst.p), t.T)
    n, p, k, s = inst.n, inst.p, t.k, t.s
    eta = max(s / n, 1.0 / np.log(n))
    inputs = TheoryInputs(n=n, p=p, k=k, s=s, sigma=t.sigma,
                          gamma_incoherence=ns.gamma,
                          covariance_report=report)
    sim = lambdas_simulation(t.sigma, n, p)
    gauss = lambdas_gaussian_design(t.sigma, n, p)
    supp = lambdas_support_recovery(t.sigma, n, p, eta, report, ns.gamma)
    oracle = lambdas_noise_oracle(inst)
    lam_b, lam_e = (sim.lambda_beta, sim.lambda_e)
    ach = sample_size_achievable(inputs, lam_b, supp.lambda_e)
    unach = sample_size_unachievable(inputs, lam_b, lam_e)
    fb, fe = magnitude_thresholds(inputs, lam_b, lam_e)
    payload = {
        "n": n, "p": p, "k": k, "s": s, "sigma": t.sigma, "eta": s / n,
        "covariance_report": asdict(report),
        "lambdas": {
            "simulation": list(sim), "gaussian_design": list(gauss),
            "support_recovery": list(supp), "noise_oracle": list(oracle),
        },
        "sample_size_achievable": asdict(ach),
        "sample_size_unachievable": asdict(unach),
        "magnitude_thresholds": {"f_beta": fb, "f_e": fe},
    }
    _write_text(ns.output, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_sweep(ns) -> int:
    cfg = sweep_config_from_dict(json.loads(_read_text(ns.config)))
    check_count("n_workers", ns.workers)  # before anything is written
    out = Path(ns.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if ns.dump_instance:
        # debugging aid: write the first trial's instance of every cell
        dump_dir = Path(ns.dump_instance)
        dump_dir.mkdir(parents=True, exist_ok=True)
        from .experiments import cell_instance
        for cell in cfg.cells():
            inst, _ = cell_instance(cfg, cell, 0)
            name = f"cell{cell.index}_p{cell.p}_{cell.regime}_theta{cell.theta}.json"
            (dump_dir / name).write_text(inst.to_json())
            print(f"[extlasso] dumped {dump_dir / name}", file=sys.stderr)

    def progress(done, total):
        print(f"[extlasso] sweep progress {done}/{total}", file=sys.stderr)

    result = run_sweep(cfg, n_workers=ns.workers, progress=progress)
    (out / "sweep_result.json").write_text(
        json.dumps(sweep_result_to_dict(result), indent=2))
    paths = emit_curves(result, out, fmt=ns.format)
    for p in paths:
        print(f"[extlasso] wrote {p}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(ns) -> int:
    result = sweep_result_from_dict(json.loads(_read_text(ns.result)))
    paths = emit_curves(result, ns.output_dir, fmt=ns.format)
    for p in paths:
        print(f"[extlasso] wrote {p}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="extlasso",
        description="Robust sparse regression with gross corruption",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic instance")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("-p", type=int, required=True)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--regime", default=None,
                   choices=("sublinear", "linear", "fractional"))
    g.add_argument("--s", type=int, default=0)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--corruption-mode", default="gross",
                   choices=("gross", "missing"))
    g.add_argument("--covariance", default="identity")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--e-scale", type=float, default=1.0)
    g.add_argument("--beta-floor", type=float, default=0.0)
    g.add_argument("--e-floor", type=float, default=0.0)
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve an instance")
    s.add_argument("instance")
    s.add_argument("--lambda-beta", type=float, default=None)
    s.add_argument("--lambda-e", type=float, default=None)
    s.add_argument("--lambda-family", default="simulation")
    s.add_argument("--sigma", type=float, default=None)
    s.add_argument("--max-iters", type=int, default=SolverConfig().max_iters,
                   help="cap on feature-sign steps (none where batch "
                        "active-set steps settle every level)")
    s.add_argument("--tol-kkt", type=float, default=SolverConfig().tol_kkt)
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="certify a solution against an instance")
    v.add_argument("instance")
    v.add_argument("solution")
    v.add_argument("--tol-kkt", type=float, default=SolverConfig().tol_kkt)
    v.add_argument("-o", "--output", default="-")
    v.set_defaults(func=_cmd_verify)

    pr = sub.add_parser("params", help="print theory quantities as JSON")
    pr.add_argument("instance")
    pr.add_argument("--gamma", type=float, default=0.5)
    pr.add_argument("-o", "--output", default="-")
    pr.set_defaults(func=_cmd_params)

    sw = sub.add_parser("sweep", help="run a phase-transition sweep")
    sw.add_argument("config", help="JSON SweepConfig file")
    sw.add_argument("output_dir")
    sw.add_argument("--workers", type=int, default=1,
                    help="worker processes, each with one BLAS thread")
    sw.add_argument("--format", default="csv", choices=("csv", "svg-data"))
    sw.add_argument("--dump-instance", default=None, metavar="DIR",
                    help="also write each cell's first-trial instance JSON")
    sw.set_defaults(func=_cmd_sweep)

    rp = sub.add_parser("report", help="emit curves from a sweep result")
    rp.add_argument("result", help="sweep_result.json path")
    rp.add_argument("output_dir")
    rp.add_argument("--format", default="csv", choices=("csv", "svg-data"))
    rp.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    _log_config(ns.command, ns)
    try:
        return ns.func(ns)
    except (InputError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"[extlasso] input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"[extlasso] numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
