"""The workloads.  Each runs closed-loop: one trial at a time, the next
started when the previous one ends, grouped in whole rounds.

A trial's timed part is the program's work only; the benchmark's checks
follow it, outside the timing, and feed `Trial.problems`.  All inputs derive
from the workload seed and the round index.
"""
from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

import extlasso as xl
from extlasso import datagen, diagnostics, experiments, solver
from extlasso.experiments import SweepConfig

import checks

#: seconds a single CLI command may take before it counts as hung
CLI_TIMEOUT_S = 60.0


@dataclass
class Trial:
    seconds: float
    failed: bool = False           # the operation failed (a known fault)
    problems: list = field(default_factory=list)


def register_layers(tracer) -> None:
    """Span names of the program's public functions (see README)."""
    tracer.instrument(datagen.gen_instance, "datagen.gen_instance")
    tracer.instrument(experiments.cell_instance, "experiments.cell_instance")
    tracer.instrument(solver.solve_extended_lasso, "solver.solve",
                      lambda sol: {"sweeps": sol.iterations})
    tracer.instrument(solver.restricted_solution, "solver.restricted_solution")
    tracer.instrument(diagnostics.kkt_check, "diagnostics.kkt_check")
    tracer.instrument(diagnostics.primal_dual_witness, "diagnostics.witness")
    tracer.instrument(diagnostics.recovery_metrics,
                      "diagnostics.recovery_metrics")
    tracer.instrument(diagnostics.extended_re_estimate,
                      "diagnostics.re_estimate",
                      lambda est: {"samples": est.num_samples})


def cli_env() -> dict:
    """The environment for CLI commands: the imported package's src/ first
    on PYTHONPATH, so every command runs the code under test."""
    env = dict(os.environ)
    src = os.path.dirname(xl.__path__[0])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _stationarity_agreement(viol, reported=None, kkt_residual=None) -> list:
    """The program's own stationarity figures against the benchmark's.

    `kkt_check` and `verify` report the on-support violation only.  The
    solver's `Solution.kkt_residual`, which decides `converged`, counts the
    off-support part too, and is evaluated in float64 on float64 solves."""
    on, off = viol
    problems = []
    if reported is not None and not checks.agrees(reported, on):
        problems.append(f"reported stationarity {reported:.6e} != "
                        f"benchmark's on-support {on:.6e}")
    if kkt_residual is not None and not checks.agrees(
            kkt_residual, max(on, off), checks.FLOAT64_ATOL):
        problems.append(f"solver kkt_residual {kkt_residual:.6e} != "
                        f"benchmark's {max(on, off):.6e}")
    return problems


class InProcess:
    """A workload that runs the program in the benchmark's own process."""

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class NoiselessRecovery(InProcess):
    """Noiseless exact recovery with tiny lambdas, on the CLI round trip's
    instance (n=890, p=64, k=4, s=n/2) and the criterion-1 penalty rule:
    the only in-process workload whose solves finish in extended
    precision."""

    name = "noiseless_recovery"
    default_seed = 101
    round_size = 1
    N, P, K = 890, 64, 4
    LAMBDA_BETA = 5e-9

    def __init__(self, seed: int, tracer, workdir):
        self.seed, self.tracer = seed, tracer
        self.lam_b = self.LAMBDA_BETA
        self.lam_e = self.LAMBDA_BETA / math.sqrt(math.log(self.P))

    def trial(self, rnd: int, i: int) -> Trial:
        lb, le = self.lam_b, self.lam_e
        t0 = time.perf_counter()
        with self.tracer.trial(rnd):
            inst = xl.gen_instance(self.N, self.P, k=self.K, s=self.N // 2,
                                   sigma=0.0, seed=(self.seed, rnd))
            sol = xl.solve_extended_lasso(inst, lb, le)
            rep = xl.kkt_check(inst, sol)
            tr = inst.truth
            _, _, beta_r, e_r = xl.restricted_solution(
                inst, tr.T, tr.S, lb, le, dtype=np.longdouble)
        out = Trial(time.perf_counter() - t0)
        with self.tracer.span("bench.checks"):
            problems, viol = checks.check_solution(
                inst.X, inst.y, sol.beta_hat, sol.e_hat, lb, le,
                sol.converged, tr.beta_star, tr.e_star)
            problems += _stationarity_agreement(
                viol, rep.stationarity_residual, sol.kkt_residual)
            recovered = sol.converged and \
                checks.same_signs(sol.beta_hat, tr.beta_star) and \
                checks.same_signs(sol.e_hat, tr.e_star)
            if recovered:
                err = checks.l2_error(sol.beta_hat, sol.e_hat,
                                      tr.beta_star, tr.e_star)
                if not err <= 1e-6:
                    problems.append(f"supports recovered, l2 error {err:.3e}")
                dev = float(max(
                    np.max(np.abs(np.asarray(sol.beta_hat, np.longdouble)
                                  - beta_r)),
                    np.max(np.abs(np.asarray(sol.e_hat, np.longdouble)
                                  - e_r))))
                if not dev <= 1e-8:
                    problems.append(f"restricted solution deviates {dev:.3e}")
        out.problems = problems
        return out


CRIT2_CONFIG = SweepConfig(
    p_list=(128,), regimes=("sublinear",),
    theta_grid=(0.1, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0),
    trials=1, sigma=0.1, s_fraction=0.5,
    lambda_family="support_recovery", gamma_incoherence=0.999,
    master_seed=7, floor_beta=0.089, floor_e="f_e",
)


class PhaseSweep(InProcess):
    """The criterion-2 operating point, one trial per theta cell a round:
    float64 path levels only, n from 64 to 11455."""

    name = "phase_sweep"
    default_seed = 7

    def __init__(self, seed: int, tracer, workdir):
        self.tracer = tracer
        self.cfg = replace(CRIT2_CONFIG, master_seed=seed)
        self.cells = self.cfg.cells()
        self.round_size = len(self.cells)

    def trial(self, rnd: int, i: int) -> Trial:
        cfg, cell = self.cfg, self.cells[i]
        t0 = time.perf_counter()
        with self.tracer.trial(rnd * self.round_size + i):
            inst, sol = experiments.solve_cell_trial(cfg, cell, rnd)
            met = xl.recovery_metrics(inst, sol, cfg.zero_tol)
            rep = xl.kkt_check(inst, sol)
            tr = inst.truth
            wit = xl.primal_dual_witness(inst, tr.T, tr.S, sol.lambda_beta,
                                         sol.lambda_e)
        out = Trial(time.perf_counter() - t0)
        with self.tracer.span("bench.checks"):
            lb, le = sol.lambda_beta, sol.lambda_e
            problems, viol = checks.check_solution(
                inst.X, inst.y, sol.beta_hat, sol.e_hat, lb, le,
                sol.converged, tr.beta_star, tr.e_star)
            problems += _stationarity_agreement(
                viol, rep.stationarity_residual, sol.kkt_residual)
            sup_b = checks.same_signs(sol.beta_hat, tr.beta_star)
            sup_e = checks.same_signs(sol.e_hat, tr.e_star)
            if (met.signed_support_beta, met.signed_support_e) != (sup_b, sup_e):
                problems.append("recovery_metrics disagrees on signed supports")
            err = checks.l2_error(sol.beta_hat, sol.e_hat, tr.beta_star,
                                  tr.e_star)
            if not checks.agrees(met.l2_total, err):
                problems.append(f"recovery_metrics l2 {met.l2_total!r} "
                                f"!= benchmark's {err!r}")
            success = sol.converged and sup_b and sup_e
            if success != wit.passed:
                problems.append(f"theta={cell.theta} trial {rnd}: solver "
                                f"success {success}, witness {wit.passed}")
        out.problems = problems
        return out


class CliPipeline:
    """`generate`, `solve` and `verify`, each its own process, on files.

    The third spec is the noiseless round trip: its solution-v1 file holds
    float64 only, so `verify` measures a stationarity near 8e-8 after the
    round trip and exits 4 on a solve that reported convergence.  It is kept
    and counted as failed; its inputs do not depend on the seed."""

    name = "cli_pipeline"
    default_seed = 0
    NOISY = ["-n", "2383", "-p", "128", "--k", "8", "--s", "1191",
             "--sigma", "0.1"]
    SPECS = (
        ("gross", NOISY, []),
        ("missing", NOISY + ["--corruption-mode", "missing"], []),
        ("roundtrip",
         ["-n", "890", "-p", "64", "--k", "4", "--s", "445", "--sigma", "0",
          "--seed", "0"],
         ["--lambda-beta", "5e-9", "--lambda-e", "2.5e-9"]),
    )
    EXPECTED_FAILURE = "roundtrip"
    round_size = len(SPECS)

    def __init__(self, seed: int, tracer, workdir):
        self.seed, self.tracer, self.workdir = seed, tracer, workdir
        self.env = cli_env()
        self.max_child_kib = 0

    def peak_rss_kib(self) -> int:
        """The largest peak resident memory of one CLI command."""
        return self.max_child_kib

    def _cli(self, span: str, args) -> int:
        with self.tracer.span(span):
            proc = subprocess.Popen(
                [sys.executable, "-m", "extlasso.cli", *args], env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            # wait4 reaps the command and gives its own ru_maxrss
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_kib = max(self.max_child_kib, usage.ru_maxrss)
        return proc.returncode

    def trial(self, rnd: int, i: int) -> Trial:
        label, gen_args, solve_args = self.SPECS[i]
        if "--seed" not in gen_args:
            gen_args = gen_args + ["--seed", str(self.seed * 100_000 + rnd)]
        inst_path = os.path.join(self.workdir, f"{label}.instance.json")
        sol_path = os.path.join(self.workdir, f"{label}.solution.json")
        ver_path = os.path.join(self.workdir, f"{label}.verify.json")
        t0 = time.perf_counter()
        with self.tracer.trial(rnd * self.round_size + i):
            codes = (self._cli("cli.generate",
                               ["generate", *gen_args, "-o", inst_path]),
                     self._cli("cli.solve",
                               ["solve", inst_path, *solve_args,
                                "-o", sol_path]),
                     self._cli("cli.verify",
                               ["verify", inst_path, sol_path,
                                "-o", ver_path]))
        out = Trial(time.perf_counter() - t0)
        with self.tracer.span("bench.checks"):
            out.problems, out.failed = self._check(label, codes, inst_path,
                                                   sol_path, ver_path)
        return out

    def _read_json(self, path, kind: str, load):
        """Load a written file through the program's reader, and require the
        program's writer to reproduce it byte for byte."""
        with open(path) as fh:
            text = fh.read()
        with self.tracer.span(f"model.{kind}_from_json"):
            self.tracer.count("bytes", len(text.encode()))
            obj = load(text)
        with self.tracer.span(f"model.{kind}_to_json"):
            again = obj.to_json()
        return obj, again == text

    def _check(self, label, codes, inst_path, sol_path, ver_path):
        if codes[:2] != (0, 0) or codes[2] not in (0, 4):
            # exit codes 2 and 3 mean no verify report was written
            return [f"{label}: exit codes {codes}"], False
        inst, same_i = self._read_json(inst_path, "instance",
                                       xl.ProblemInstance.from_json)
        sol, same_s = self._read_json(sol_path, "solution",
                                      xl.Solution.from_json)
        problems = [f"{label}: {kind} file does not survive a re-write"
                    for kind, same in (("instance", same_i),
                                       ("solution", same_s)) if not same]
        tr = inst.truth
        args = (inst.X, inst.y, sol.beta_hat, sol.e_hat, sol.lambda_beta,
                sol.lambda_e)
        verify = codes[2]
        failed = label == self.EXPECTED_FAILURE and verify == 4
        if failed:
            # the known fault: a converged solve refused after the round trip
            viol = checks.kkt_violations(*args)
            if not (sol.converged and max(viol) > checks.STATIONARITY_TOL):
                problems.append(f"{label}: verify exit 4 on a stationary "
                                f"point ({max(viol):.3e})")
            kkt_residual = None   # measured before the float64 round trip
        else:
            found, viol = checks.check_solution(*args, sol.converged,
                                                tr.beta_star, tr.e_star)
            problems += found
            if verify != 0:
                problems.append(f"{label}: verify exit code {verify}")
            kkt_residual = sol.kkt_residual
        with open(ver_path) as fh:
            reported = json.load(fh)["stationarity_residual"]
        problems += _stationarity_agreement(viol, reported, kkt_residual)
        return problems, failed


class ErrorBound(InProcess):
    """Criterion-5 instances: the cone sampler's curvature estimate feeds the
    Theorem-1 error bound at safety 0.5."""

    name = "error_bound"
    default_seed = 105
    round_size = 1
    N, P, K, S, SIGMA = 400, 100, 5, 40, 0.1
    SAMPLES = 10_000

    def __init__(self, seed: int, tracer, workdir):
        self.seed, self.tracer = seed, tracer

    def trial(self, rnd: int, i: int) -> Trial:
        t0 = time.perf_counter()
        with self.tracer.trial(rnd):
            inst = xl.gen_instance(self.N, self.P, k=self.K, s=self.S,
                                   sigma=self.SIGMA, seed=(self.seed, rnd))
            pair = xl.lambdas_noise_oracle(inst)
            tr = inst.truth
            est = xl.extended_re_estimate(inst.X, tr.T, tr.S, pair.ratio,
                                          self.SAMPLES,
                                          seed=(self.seed + 1, rnd))
            sol = xl.solve_extended_lasso(inst, *pair)
            bound = xl.parameter_error_bound(est.kappa_hat, *pair, k=self.K,
                                             s=self.S, safety=0.5)
        out = Trial(time.perf_counter() - t0)
        with self.tracer.span("bench.checks"):
            problems, viol = checks.check_solution(
                inst.X, inst.y, sol.beta_hat, sol.e_hat, *pair,
                sol.converged, tr.beta_star, tr.e_star)
            problems += _stationarity_agreement(
                viol, kkt_residual=sol.kkt_residual)
            own_bound = checks.error_bound(est.kappa_hat, *pair, self.K,
                                           self.S)
            if not checks.agrees(bound, own_bound):
                problems.append(f"error bound {bound!r} != {own_bound!r}")
            err = checks.l2_error(sol.beta_hat, sol.e_hat, tr.beta_star,
                                  tr.e_star)
            if not err <= own_bound:
                problems.append(f"l2 error {err:.4f} above the bound "
                                f"{own_bound:.4f}")
        out.problems = problems
        return out


WORKLOADS = {w.name: w for w in
             (NoiselessRecovery, PhaseSweep, CliPipeline, ErrorBound)}
