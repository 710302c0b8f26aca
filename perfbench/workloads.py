"""The benchmark's workloads: one closed loop each, a single caller in one
process.

Every workload builds its inputs from the seed in ``setup`` and then repeats
one operation.  ``run_once`` times the operation and returns an ``Outcome``:
phase times, the operations attempted and failed, digests of the outputs
(compared across repeats, so tracing must not change them) and a few
quality numbers.  ``check`` returns the output checks that did not hold.

Operations and what counts as a failed one:

* ``optimize_heat``: ``biload optimize`` on ``configs/heat.cfg``.  An
  operation is a line search; it fails when it hits the step floor.
* ``gradcheck_biload``: ``biload grad-check`` on ``configs/biload.cfg``.  An
  operation is a grad-check entry; it fails when it exceeds its tolerance.
* ``gradient_fire``: forward solve, costate solve and ``control_gradient`` on
  ``forest_fire_minimal``.  An operation is a solve; it fails when it does
  not converge or raises.

After each operation the two CLI workloads also time forward solves and
costate solves plus ``control_gradient`` of their config at its start
controls, in a batch of ``SOLVE_BATCH_S``, so that ``solve_s`` and
``gradient_s`` exist on every workload.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from biload import adjoint, cli, forward, models, state, verify
from biload.errors import DivergenceError, KernelEvalError
from biload.mesh import build_mesh
from speed import SpeedProbe, timed

ROOT = Path(__file__).resolve().parents[1]

#: grad-check tolerances the CLI applies (``verify.gradient_check`` defaults)
TOL_DTO = 1e-5
TOL_ADJOINT = 1e-2

#: forest_fire_minimal grid and horizon.  Each operation takes about 4 s on
#: a 2-CPU x86 machine; N=48 takes about 13 s and leaves too few repeats in a
#: run.  Per-sweep cost is still the dense (Nt+1)^2 (Nx+1)^2 contraction.
FIRE_N = 40
FIRE_T = 0.01
FIRE_TOL = 1e-10
#: The costate gradient matches the discrete gradient to first order.  The
#: gap, relative to |g| |d| in the quadrature norm, reached 0.024 over 74
#: seeds at N=40; allow two grid spacings.
FIRE_CD_TOL = 2.0 / FIRE_N
#: The CLI workloads' timed solve and gradient take milliseconds.  After each
#: operation they run for this long, so that the speed probe gets enough
#: ticks; the mean per call over the batch is one sample.
SOLVE_BATCH_S = 1.0


@dataclass
class Outcome:
    times: dict  # metric name -> samples in seconds
    attempted: int
    failed: int
    digest: str
    details: dict = field(default_factory=dict)


def _digest_files(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _gradient(problem, mesh, st, controls, cfg):
    slots = state.derive_slots(mesh, st)
    co, crep = adjoint.solve_costate(problem, mesh, st, slots, controls, cfg)
    grad = None
    if crep.converged:
        grad = adjoint.control_gradient(problem, mesh, st, slots, controls, co)
    return crep, grad


def solve_and_gradient(problem, mesh, controls, cfg):
    """Time one forward solve, then one costate solve plus control_gradient.

    Returns (solve_s, gradient_s, state, forward report, costate report,
    gradient), with wall times.  The gradient is None when a solve did not
    converge.
    """
    start = time.perf_counter()
    st, srep = forward.solve_forward(problem, mesh, controls, cfg)
    solve_s = time.perf_counter() - start
    if not srep.converged:
        return solve_s, 0.0, st, srep, None, None
    start = time.perf_counter()
    crep, grad = _gradient(problem, mesh, st, controls, cfg)
    return solve_s, time.perf_counter() - start, st, srep, crep, grad


def warm_up(problem, mesh, controls) -> None:
    """One forward sweep and one costate assembly: touches every kernel,
    stencil and contraction path once."""
    st = state.zero_state(mesh, problem.n)
    forward.sweep_map(problem, mesh, st, controls)
    adjoint.assemble_h_partials(
        problem, mesh, st, state.derive_slots(mesh, st), controls,
        state.zero_costate(mesh, problem.n),
    )


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = Path(outdir)
        #: quality numbers ``check`` measured, reported with the run
        self.report: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_once(self, k: int, tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, outcomes) -> list:
        """Checks common to every workload; subclasses add their own."""
        problems = []
        if len({o.digest for o in outcomes}) != 1:
            problems.append("outputs differ between repeats")
        return problems


class _CliWorkload(Workload):
    """A CLI subcommand run in-process through ``cli.main``, followed by one
    timed solve and gradient of the same config."""

    subcommand = ""

    def __init__(self, seed, outdir, config: Path):
        super().__init__(seed, outdir)
        self.config = Path(config)

    def setup(self) -> None:
        spec = cli.parse_config(self.config.read_text(encoding="utf-8"))
        self.mesh = build_mesh(**spec.mesh)
        self.problem = models.make_model(spec.model)
        self.controls = cli.build_controls(spec, self.mesh, self.problem)
        self.cfg = cli._solver_cfg(spec, self.mesh)
        warm_up(self.problem, self.mesh, self.controls)

    def run_once(self, k, tracer=None) -> Outcome:
        outdir = self.outdir / f"op{k}"
        outdir.mkdir(parents=True, exist_ok=True)
        argv = [self.subcommand, "--config", str(self.config), "--out", str(outdir),
                "--seed", str(self.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tracer or contextlib.nullcontext():
            rc, op_s, wall = timed(cli.main, argv)
        outcome = self.read_outcome(outdir, rc, buf.getvalue())
        outcome.details["op_wall_s"] = wall
        solves, grads = [], []
        converged = True
        with SpeedProbe() as probe:
            deadline = time.perf_counter() + SOLVE_BATCH_S
            while not solves or time.perf_counter() < deadline:
                solve_s, grad_s, *_, grad = solve_and_gradient(
                    self.problem, self.mesh, self.controls, self.cfg
                )
                solves.append(solve_s)
                grads.append(grad_s)
                converged = converged and grad is not None
        scale = probe.scale()
        outcome.times = {"op_s": [op_s], "solve_s": [statistics.fmean(solves) * scale],
                         "gradient_s": [statistics.fmean(grads) * scale]}
        outcome.details["timed_solves_converged"] = converged
        return outcome

    def read_outcome(self, outdir: Path, rc: int, text: str) -> Outcome:
        raise NotImplementedError

    def check(self, outcomes) -> list:
        problems = super().check(outcomes)
        if not all(o.details["timed_solves_converged"] for o in outcomes):
            problems.append("timed forward or costate solve did not converge")
        return problems


class OptimizeHeat(_CliWorkload):
    """``biload optimize`` on heat.cfg from its shipped zero start.

    The seed reaches the CLI but does not move the start: projected GD stalls
    in a line search whose length is chaotic in the start (8 constant starts
    within 1e-2 of zero took 44 to 158 forward solves), so a seeded start
    would make the time per seed, not the code, decide ``op_s``.
    """

    name = "optimize_heat"
    subcommand = "optimize"
    _STATUS = re.compile(r"optimize: status=(\S+) J_final=(\S+)")

    def __init__(self, seed, outdir, config=ROOT / "configs" / "heat.cfg"):
        super().__init__(seed, outdir, config)

    def read_outcome(self, outdir, rc, text) -> Outcome:
        match = self._STATUS.search(text)
        status = match.group(1) if match else "missing"
        with open(outdir / "history.csv", newline="", encoding="utf-8") as fh:
            costs = [float(row["J"]) for row in csv.DictReader(fh)]
        accepted = len(costs) - 1
        failed = int(status == "line_search_failed")
        return Outcome(
            times={},
            attempted=accepted + failed,
            failed=failed,
            digest=_digest_files(outdir),
            details={"rc": rc, "status": status, "costs": costs, "J_final": costs[-1]},
        )

    def check(self, outcomes) -> list:
        problems = super().check(outcomes)
        for o in outcomes:
            if o.details["rc"] != 0:
                problems.append(f"optimize exited {o.details['rc']}")
            costs = o.details["costs"]
            if any(b > a for a, b in zip(costs, costs[1:])):
                problems.append("J increased across accepted rows")
        return problems


class GradcheckBiload(_CliWorkload):
    """``biload grad-check --seed <seed>`` on biload.cfg: 60 finite-difference
    re-solves plus the dense oracle on the model with every cross load."""

    name = "gradcheck_biload"
    subcommand = "grad-check"

    def __init__(self, seed, outdir, config=ROOT / "configs" / "biload.cfg"):
        super().__init__(seed, outdir, config)

    def read_outcome(self, outdir, rc, text) -> Outcome:
        with open(outdir / "grad_check.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        err_adj = [float(r["err_adjoint"]) for r in rows]
        err_dto = [float(r["err_dto"]) for r in rows if r["err_dto"]]
        failed = sum(
            1 for r in rows
            if float(r["err_adjoint"]) > TOL_ADJOINT
            or (r["err_dto"] and float(r["err_dto"]) > TOL_DTO)
        )
        return Outcome(
            times={},
            attempted=len(rows),
            failed=failed,
            digest=_digest_files(outdir),
            details={
                "rc": rc,
                "entries_with_dto": len(err_dto),
                "grad_gap_max": max(err_adj),
                "dto_gap_max": max(err_dto, default=float("nan")),
            },
        )

    def check(self, outcomes) -> list:
        problems = super().check(outcomes)
        for o in outcomes:
            if o.details["rc"] != (1 if o.failed else 0):
                problems.append(f"grad-check exited {o.details['rc']} with {o.failed} failures")
            if o.details["entries_with_dto"] != o.attempted:
                problems.append("dense oracle missing from some entries")
            if not o.details["dto_gap_max"] <= TOL_DTO:
                problems.append(f"dto-vs-FD gap {o.details['dto_gap_max']:.3g} > {TOL_DTO:g}")
        return problems


def _unit_sup(field: np.ndarray) -> np.ndarray:
    return field / np.max(np.abs(field))


class GradientFire(Workload):
    """solve_forward -> solve_costate -> control_gradient on
    forest_fire_minimal with smooth seeded controls of unit sup norm (a fixed
    amplitude keeps the sweep count from depending on the seed)."""

    name = "gradient_fire"

    def __init__(self, seed, outdir, N: int = FIRE_N):
        super().__init__(seed, outdir)
        self.N = N

    def setup(self) -> None:
        params = models.make_params("forest_fire_minimal")
        self.mesh = build_mesh(FIRE_T, self.N, 0.0, 1.0, self.N)
        self.problem = models.make_model(params)
        relax = models.picard_relax_hint(params, self.mesh)
        self.cfg = forward.SolverConfig(tol=FIRE_TOL, relax=relax, max_iter=4000)
        self.tight = forward.SolverConfig(tol=1e-12, relax=relax, max_iter=4000)
        rng = np.random.default_rng(self.seed)
        self.controls = state.zero_controls(self.mesh, 1, 1)
        self.controls.u[...] = _unit_sup(verify.smooth_direction(self.mesh, "u", 1, rng))
        self.controls.w[...] = _unit_sup(verify.smooth_direction(self.mesh, "w", 1, rng))
        self.direction = verify.smooth_direction(self.mesh, "u", 1, rng)
        self.state = self.grad = None
        warm_up(self.problem, self.mesh, self.controls)

    def run_once(self, k, tracer=None) -> Outcome:
        try:
            with tracer or contextlib.nullcontext(), SpeedProbe() as probe:
                solve_s, grad_s, st, srep, crep, grad = solve_and_gradient(
                    self.problem, self.mesh, self.controls, self.cfg
                )
        except (DivergenceError, KernelEvalError) as exc:
            times = {"op_s": [], "solve_s": [], "gradient_s": []}
            return Outcome(times, 1, 1, "", {"error": str(exc)})
        failed = int(not srep.converged) + int(crep is not None and not crep.converged)
        self.state, self.grad = st, grad
        wall = solve_s + grad_s
        solve_s, grad_s = solve_s * probe.scale(), grad_s * probe.scale()
        return Outcome(
            times={"op_s": [solve_s + grad_s], "solve_s": [solve_s], "gradient_s": [grad_s]},
            attempted=1 if crep is None else 2,
            failed=failed,
            digest=_digest_arrays(*st.blocks(), *([] if grad is None else
                                                  (grad.g_u, grad.g_w))),
            details={"op_wall_s": wall, "forward_sweeps": srep.iterations,
                     "costate_sweeps": None if crep is None else crep.iterations},
        )

    def check(self, outcomes) -> list:
        problems = super().check(outcomes)
        if any(o.failed for o in outcomes) or self.grad is None:
            problems.append("a forward or costate solve did not converge")
            return problems
        mesh, problem, controls = self.mesh, self.problem, self.controls
        res = float(np.max(np.abs(forward.residual_flat(problem, mesh, self.state, controls))))
        if not res <= 10 * FIRE_TOL:
            problems.append(f"residual_flat sup {res:.3g} > {10 * FIRE_TOL:g}")
        d = self.direction
        adj = adjoint.block_pairing(mesh, "u", self.grad.g_u, d)
        fd = verify.fd_directional(problem, mesh, controls, "u", d, 1e-5, self.tight)
        scale = np.sqrt(adjoint.block_pairing(mesh, "u", self.grad.g_u, self.grad.g_u)
                        * adjoint.block_pairing(mesh, "u", d, d))
        gap = abs(adj - fd) / scale
        self.report.update(residual_sup=res, cd_gap=gap)
        if not gap <= FIRE_CD_TOL:
            problems.append(f"adjoint-vs-central-difference gap {gap:.3g} > {FIRE_CD_TOL:g}")
        return problems


WORKLOADS = {w.name: w for w in (OptimizeHeat, GradcheckBiload, GradientFire)}
