"""End-to-end acceptance checks for the fitting toolkit.

Each test covers one numbered criterion and emits a single PASS/FAIL line
(collected into the terminal summary by conftest). The noisy-recovery
criteria run the full preset x seed x algorithm fit matrix once, shared
across tests via module-scoped fixtures. Criterion 3 bounds each fit's error
in design standard errors, sigma * sqrt(diag((J^T J)^-1)) with J the residual
Jacobian at the truth, because how precisely a preset's data pin down
(alpha, beta) depends on its design; criterion 4 keeps a percentage bound.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from respfit import (
    ConstantHistory,
    Constants,
    ModelParams,
    NonFiniteError,
    State,
    equilibrium_solve,
    generate_dataset,
    solve_dde,
)
from respfit.cli import main as cli_main
from respfit.experiments import PRESETS, resolve_history
from respfit.fitting import (
    ResidualProblem,
    Termination,
    fd_jacobian,
    solve_lm,
    solve_trust_region,
)

SEEDS = tuple(range(1, 21))
SIGMA_020_PRESETS = ("ex1", "ex2", "ex5")
SIGMA_040_PRESETS = ("ex3", "ex4")
# Criterion 3 bounds every fit's error by this many design standard errors:
# a Bonferroni bound over 3 presets x 20 seeds x 2 parameters = 120
# two-sided comparisons at a 1% family-wise level gives z = 3.93.
DESIGN_SE_BOUND = 4.0
# Criterion 13 draws this many random designs from this generator seed, and
# bounds each converged fit's distance to SciPy's optimum from the same start
# by this fraction of a standard error; fixed before the first run.
RANDOM_DESIGNS = 200
RANDOM_DESIGN_SEED = 777
RANDOM_DESIGN_SE_BOUND = 0.01


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _rel_pct(fit: tuple[float, float], truth: ModelParams) -> tuple[float, float]:
    return (
        abs(fit[0] - truth.alpha) / truth.alpha * 100.0,
        abs(fit[1] - truth.beta) / truth.beta * 100.0,
    )


def _preset_problem(name: str, sigma: float, seed: int) -> ResidualProblem:
    cfg = PRESETS[name]
    hist = resolve_history(cfg.history_spec, cfg.truth)
    dataset = generate_dataset(
        cfg.truth,
        hist,
        cfg.t0,
        cfg.t_end,
        cfg.n_points,
        sigma,
        seed,
        steps_per_delay=cfg.steps_per_delay,
    )
    return ResidualProblem.from_dataset(dataset, hist, steps_per_delay=cfg.steps_per_delay)


def _central_jacobian(problem: ResidualProblem, p, delta: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of problem.residuals at p."""
    p = np.asarray(p, dtype=float)
    cols = []
    for step in np.eye(len(p)) * delta:
        cols.append((problem.residuals(p + step) - problem.residuals(p - step)) / (2.0 * delta))
    return np.column_stack(cols)


def _design_se_pct(name: str) -> tuple[float, float]:
    """Linearised standard errors of (alpha, beta) for a preset, in % of truth.

    sigma * sqrt(diag((J^T J)^-1)) with J the residual Jacobian at the truth
    (Bates & Watts 1988, ch. 2). J is the model's sensitivity, so it does not
    depend on the noise draw; the noiseless dataset gives it.
    """
    cfg = PRESETS[name]
    truth = (cfg.truth.alpha, cfg.truth.beta)
    J = _central_jacobian(_preset_problem(name, 0.0, cfg.seed), truth)
    se = cfg.sigma * np.sqrt(np.diag(np.linalg.inv(J.T @ J)))
    return (float(se[0] / truth[0] * 100.0), float(se[1] / truth[1] * 100.0))


@pytest.fixture(scope="module")
def noiseless_fits():
    """Both solvers on every preset with sigma forced to zero, timed."""
    start = time.perf_counter()
    fits = {}
    for name, cfg in PRESETS.items():
        problem = _preset_problem(name, 0.0, cfg.seed)
        fits[name] = {
            "lm": solve_lm(problem, cfg.p0),
            "tr": solve_trust_region(problem, cfg.p0),
        }
    return fits, time.perf_counter() - start


@pytest.fixture(scope="module")
def noisy_matrix():
    """Every preset at its own sigma, seeds 1..20, both solvers.

    Returns the fit table keyed by (preset, seed) and per-preset wall time
    (dataset generation included, as the criteria budget end-to-end runs).
    """
    fits = {}
    elapsed = {}
    for name, cfg in PRESETS.items():
        start = time.perf_counter()
        for seed in SEEDS:
            problem = _preset_problem(name, cfg.sigma, seed)
            fits[(name, seed)] = {
                "lm": solve_lm(problem, cfg.p0),
                "tr": solve_trust_region(problem, cfg.p0),
            }
        elapsed[name] = time.perf_counter() - start
    return fits, elapsed


def test_criterion_1_equilibrium_reproduction():
    params = ModelParams(alpha=0.5, beta=0.8)
    eq = equilibrium_solve(params)  # warm call, excluded from timing
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        equilibrium_solve(params)
        best = min(best, time.perf_counter() - start)
    match = abs(eq.x_star - 29.1842) < 5e-5 and abs(eq.y_star - 18.2401) < 5e-5
    _verdict(
        1,
        match and best < 1e-3,
        f"equilibrium ({eq.x_star:.4f}, {eq.y_star:.4f}), {best * 1e6:.0f} us",
    )


def test_criterion_2_noiseless_identifiability(noiseless_fits):
    fits, elapsed = noiseless_fits
    worst = 0.0
    for name, cfg in PRESETS.items():
        for algo in ("lm", "tr"):
            fit = fits[name][algo].best_fit
            worst = max(
                worst,
                abs(fit[0] - cfg.truth.alpha) / cfg.truth.alpha,
                abs(fit[1] - cfg.truth.beta) / cfg.truth.beta,
            )
    _verdict(
        2,
        worst <= 1e-6 and elapsed < 5.0,
        f"worst relative error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_noisy_recovery_sigma_020(noisy_matrix):
    fits, elapsed = noisy_matrix
    errs_alpha, errs_beta = [], []
    worst, where = 0.0, ""
    design = []
    for name in SIGMA_020_PRESETS:
        truth = PRESETS[name].truth
        se_pct = _design_se_pct(name)
        preset_worst = 0.0
        for seed in SEEDS:
            for algo in ("lm", "tr"):
                ea, eb = _rel_pct(fits[(name, seed)][algo].best_fit, truth)
                errs_alpha.append(ea)
                errs_beta.append(eb)
                for label, err, se in (("alpha", ea, se_pct[0]), ("beta", eb, se_pct[1])):
                    z = err / se
                    preset_worst = max(preset_worst, z)
                    if z > worst:
                        worst, where = z, f"{name} seed {seed} {algo} {label} ({err:.3f}%)"
        design.append(f"{name} SE {se_pct[0]:.3f}%/{se_pct[1]:.3f}% worst {preset_worst:.2f} SE")
    mean_a = statistics.mean(errs_alpha)
    mean_b = statistics.mean(errs_beta)
    runtime = sum(elapsed[name] for name in SIGMA_020_PRESETS)
    ok = worst <= DESIGN_SE_BOUND and mean_a <= 1.5 and mean_b <= 1.0 and runtime < 60.0
    _verdict(
        3,
        ok,
        f"max {worst:.2f} SE at {where}; " + ", ".join(design) + ";"
        f" means alpha {mean_a:.3f}% beta {mean_b:.3f}%; {runtime:.1f} s",
    )


def test_criterion_3_fits_are_the_least_squares_minimizers(noisy_matrix):
    # Criteria 3 and 4 bound the spread of the least-squares estimator, so
    # the fits they measure must be that estimator: an independent solver
    # started from the same point has to land on the same minimizer.
    optimize = pytest.importorskip("scipy.optimize")
    fits, _ = noisy_matrix
    worst, where = 0.0, ""
    for name in SIGMA_020_PRESETS + SIGMA_040_PRESETS:
        cfg = PRESETS[name]
        for seed in SEEDS:
            problem = _preset_problem(name, cfg.sigma, seed)
            oracle = optimize.least_squares(
                problem.residuals, cfg.p0, method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12
            ).x
            for algo in ("lm", "tr"):
                gap = float(np.max(np.abs(np.asarray(fits[(name, seed)][algo].best_fit) - oracle)))
                if gap > worst:
                    worst, where = gap, f"{name} seed {seed} {algo}"
    assert worst <= 1e-6, f"max gap to scipy least_squares {worst:.2e} at {where}"


def test_criterion_4_noisy_recovery_sigma_040(noisy_matrix):
    fits, elapsed = noisy_matrix
    worst, where = 0.0, ""
    for name in SIGMA_040_PRESETS:
        truth = PRESETS[name].truth
        for seed in SEEDS:
            for algo in ("lm", "tr"):
                ea, eb = _rel_pct(fits[(name, seed)][algo].best_fit, truth)
                for label, err in (("alpha", ea), ("beta", eb)):
                    if err > worst:
                        worst, where = err, f"{name} seed {seed} {algo} {label}"
    runtime = sum(elapsed[name] for name in SIGMA_040_PRESETS)
    _verdict(
        4,
        worst <= 4.0 and runtime < 60.0,
        f"max {worst:.3f}% at {where}; {runtime:.1f} s",
    )


def test_criterion_5_algorithm_agreement(noisy_matrix):
    fits, _ = noisy_matrix
    worst, where = 0.0, ""
    for (name, seed), pair in fits.items():
        lm, tr = pair["lm"].best_fit, pair["tr"].best_fit
        gap = max(abs(lm[0] - tr[0]), abs(lm[1] - tr[1]))
        if gap > worst:
            worst, where = gap, f"{name} seed {seed}"
    _verdict(5, worst <= 1e-4, f"max componentwise gap {worst:.2e} at {where}")


def test_criterion_6_trace_morphology(noisy_matrix):
    fits, _ = noisy_matrix
    problems = []
    max_lm, max_tr = 0, 0
    for (name, seed), pair in fits.items():
        lm, tr = pair["lm"], pair["tr"]
        max_lm = max(max_lm, lm.trace[-1].iteration)
        max_tr = max(max_tr, tr.trace[-1].iteration)
        if lm.trace[-1].iteration > 10:
            problems.append(f"{name}/{seed}: LM took {lm.trace[-1].iteration} iterations")
        if tr.trace[-1].iteration > 12:
            problems.append(f"{name}/{seed}: TR took {tr.trace[-1].iteration} iterations")
        trace = lm.trace
        if trace[0].lam != 0.01 or trace[0].function_count != 3:
            problems.append(f"{name}/{seed}: LM start record lam={trace[0].lam}")
        for prev, rec in zip(trace, trace[1:]):
            delta = rec.function_count - prev.function_count
            if delta < 3:
                problems.append(f"{name}/{seed}: function count advanced by {delta}")
            elif delta == 3 and rec.lam != prev.lam / 10.0:
                # rejection-free acceptance must divide the damping by ten
                problems.append(f"{name}/{seed}: lam {prev.lam} -> {rec.lam}")
    _verdict(
        6,
        not problems,
        f"LM <= {max_lm} iterations, TR <= {max_tr}; lam/function-count pattern holds"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_7_solver_order():
    # Over the first delay interval the lagged arguments come from the
    # constant history, so each component follows u' = 1 - c*u with c fixed
    # and has the closed-form endpoint value below.
    alpha, beta = 0.5, 0.8
    x0 = y0 = 35.0
    v = 0.14 * math.exp(-0.05 * (100.0 - y0)) * x0

    def exact(c: float, u0: float, t: float) -> float:
        return 1.0 / c + (u0 - 1.0 / c) * math.exp(-c * t)

    errs = []
    for spd in (10, 20, 40):
        traj = solve_dde(
            ModelParams(alpha=alpha, beta=beta),
            ConstantHistory(State(x0, y0)),
            0.0,
            1.0,
            steps_per_delay=spd,
        )
        errs.append(
            max(
                abs(float(traj.x[-1]) - exact(alpha * v, x0, 1.0)),
                abs(float(traj.y[-1]) - exact(beta * v, y0, 1.0)),
            )
        )
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    _verdict(
        7,
        min(orders) >= 3.5,
        "observed orders " + ", ".join(f"{p:.2f}" for p in orders),
    )


def test_criterion_8_jacobian_correctness():
    problem = _preset_problem("ex1", PRESETS["ex1"].sigma, PRESETS["ex1"].seed)
    rng = np.random.Generator(np.random.PCG64(20260817))
    worst = 0.0
    for _ in range(10):
        p = 0.1 + 0.9 * rng.random(2)
        forward, _ = fd_jacobian(problem, p)
        central = _central_jacobian(problem, p)
        scale = np.maximum(np.abs(central), 1e-3 * np.max(np.abs(central)))
        worst = max(worst, float(np.max(np.abs(forward - central) / scale)))
    _verdict(8, worst <= 1e-4, f"max relative deviation {worst:.2e} over 10 points")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["run-summary", "--seeds", "1,2,3", "--out", str(out)])
        assert code == 0
        outs.append(out)
    rel_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    identical = rel_a == rel_b and all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in rel_a
    )
    _verdict(9, identical, f"{len(rel_a)} files compared byte-for-byte")


def _method_of_steps(integrate, params: ModelParams, start: State, times: np.ndarray):
    """(x, y) at times by SciPy's DOP853, one delay interval at a time.

    PAPER.md's two equations, integrated independently of respfit's RK4
    kernels (method of steps: Bellen & Zennaro, Numerical Methods for Delay
    Differential Equations, 2003). On [t0, t0 + tau] the delayed state is the
    constant history; on each later interval it is read from the previous
    interval's dense output.
    """
    c = params.constants
    tau = c.tau

    def delayed(_t):
        return start.x, start.y

    state = (start.x, start.y)
    t, t_end = float(times[0]), float(times[-1])
    out = np.empty((2, len(times)))
    while t < t_end:
        t_next = min(t + tau, t_end)

        def rhs(s, u, delayed=delayed):
            xd, yd = delayed(s - tau)
            v = c.vent_gain * math.exp(-c.vent_rate * (c.vent_offset - yd)) * xd
            return [1.0 - params.alpha * v * u[0], 1.0 - params.beta * v * u[1]]

        sol = integrate.solve_ivp(
            rhs, (t, t_next), state, method="DOP853", rtol=1e-13, atol=1e-12, dense_output=True
        )
        assert sol.success, sol.message
        inside = (times >= t) & (times <= t_next)
        out[:, inside] = sol.sol(times[inside])
        delayed, state, t = sol.sol, sol.y[:, -1], t_next
    return out


# (alpha, beta) and history state of the forward-model criteria 11 and 12
FORWARD_CASES = (
    ((0.5, 0.8), (35.0, 35.0)),
    ((0.3, 0.5), (35.0, 35.0)),
    ((1.2, 0.4), (35.0, 35.0)),
    ((0.5, 0.8), (20.0, 50.0)),
)


def _forward_model_gap(integrate, times: np.ndarray) -> tuple[float, str]:
    """Largest gap between respfit at 50 steps per delay on [0, 5] and the oracle at times."""
    worst, where = 0.0, ""
    for (alpha, beta), (x0, y0) in FORWARD_CASES:
        params, state = ModelParams(alpha=alpha, beta=beta), State(x0, y0)
        traj = solve_dde(params, ConstantHistory(state), 0.0, 5.0, steps_per_delay=50)
        oracle = _method_of_steps(integrate, params, state, times)
        gap = float(np.max(np.abs(np.vstack(traj.eval_many(times)) - oracle)))
        if gap > worst:
            worst, where = gap, f"({alpha}, {beta}) from ({x0:g}, {y0:g})"
    return worst, where


def test_criterion_11_independent_forward_model():
    # Criterion 7 checks the order of accuracy only on [0, tau], where the
    # delayed state is the constant history, and the other criteria compare
    # fits with fits; past t0 + tau only an independent integrator of the
    # paper's equations can tell a wrong delayed argument from a right one.
    integrate = pytest.importorskip("scipy.integrate")
    start = time.perf_counter()
    worst, where = _forward_model_gap(integrate, np.linspace(0.0, 5.0, 51))
    _verdict(
        11,
        worst <= 1e-9,
        f"max gap to DOP853 method of steps {worst:.2e} at {where}; "
        f"{time.perf_counter() - start:.2f} s",
    )


def test_criterion_12_dense_output_between_grid_nodes():
    # Criterion 11's times are all grid nodes, so it never reads the cubic
    # Hermite interpolant; here every time after t0 is a midpoint between
    # two nodes 0.02 apart, where that interpolant's O(h^4) error is 2.1e-9.
    integrate = pytest.importorskip("scipy.integrate")
    times = np.concatenate([[0.0], (np.arange(250) + 0.5) * 0.02])
    start = time.perf_counter()
    worst, where = _forward_model_gap(integrate, times)
    _verdict(
        12,
        worst <= 1e-8,
        f"max gap to DOP853 method of steps at 250 midpoints {worst:.2e} at {where}; "
        f"{time.perf_counter() - start:.2f} s",
    )


def _random_design(rng: np.random.Generator):
    """One config from the ordinary ranges of tests/test_config_properties.py, as (problem, p0)."""
    u = rng.uniform
    tau = float(rng.choice([1.0, 0.5, 2.0, 0.25]))
    constants = Constants(tau, u(0.05, 0.3), u(0.01, 0.1), u(50.0, 150.0))
    truth = ModelParams(u(0.1, 2.0), u(0.1, 2.0), constants)
    p0 = (u(0.01, 1.0), u(0.01, 1.0))
    sigma = 0.0 if rng.integers(2) else u(0.0, 1.0)
    seed = int(rng.integers(2**63))
    n_points, spd = int(rng.integers(2, 61)), int(rng.integers(2, 61))
    spec = ("constant:35,35", "equilibrium", f"constant:{u(1.0, 60.0)!r},{u(1.0, 60.0)!r}")
    t0 = 0.0 if rng.integers(2) else u(-50.0, 50.0)
    t_end = t0 + float(rng.choice([0.5, 1.0, 2.0, 5.0, 20.0]))
    history = resolve_history(spec[rng.integers(3)], truth)
    dataset = generate_dataset(truth, history, t0, t_end, n_points, sigma, seed, spd)
    return ResidualProblem.from_dataset(dataset, history, steps_per_delay=spd), p0


def _rejecting_blow_ups(problem: ResidualProblem):
    """problem.residuals, with a huge residual for a trial whose solve blows up.

    MINPACK then rejects that trial and shortens its step, as respfit's
    optimizers reject a trial that blows up, in place of aborting the search.
    """

    def residuals(p):
        try:
            return problem.residuals(p)
        except NonFiniteError:
            return np.full(len(problem.obs), 1e100)

    return residuals


def test_criterion_13_converged_fits_are_at_the_least_squares_optimum():
    # Criterion 3's oracle sees five presets on one window and one grid; a
    # random design can still end in a false "converged". Every fit that
    # reports a tolerance stop must sit at the optimum SciPy reaches from the
    # same start, to a fraction of the parameter's standard error there.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(RANDOM_DESIGN_SEED)
    start = time.perf_counter()
    checked, capped, worst, worst_se, where, failures = 0, 0, 0.0, 0.0, "none", []
    for k in range(RANDOM_DESIGNS):
        # every design runs: a named error here fails the criterion
        problem, p0 = _random_design(rng)
        fits = {"lm": solve_lm(problem, p0), "tr": solve_trust_region(problem, p0)}
        oracle = optimize.least_squares(
            _rejecting_blow_ups(problem), p0, method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12
        ).x
        r = problem.residuals(oracle)
        J, _ = fd_jacobian(problem, oracle, r)
        se = np.sqrt(np.diag(r @ r / (len(r) - 2) * np.linalg.inv(J.T @ J)))
        # a noiseless design has an SE near 0, where the absolute floor governs
        floor = 1e-6 * np.maximum(1.0, np.abs(oracle))
        allowed = np.maximum(RANDOM_DESIGN_SE_BOUND * se, floor)
        for algo, fit in fits.items():
            if fit.termination is Termination.MAX_ITERATIONS:
                capped += 1
                continue
            checked += 1
            gap = np.abs(np.asarray(fit.best_fit) - oracle)
            share = float(np.max(gap / allowed))
            if share > worst:
                worst, where = share, f"design {k} {algo}"
            by_se = RANDOM_DESIGN_SE_BOUND * se > floor
            if by_se.any():
                worst_se = max(worst_se, float(np.max(gap[by_se] / se[by_se])))
            if share > 1.0:
                failures.append(f"design {k} {algo} at {share:.3g} of its bound")
    _verdict(
        13,
        not failures,
        f"{checked} converged fits over {RANDOM_DESIGNS} random designs (seed "
        f"{RANDOM_DESIGN_SEED}), within "
        f"{RANDOM_DESIGN_SE_BOUND} SE or 1e-6*max(1, |p|) of SciPy's optimum: worst at "
        f"{worst:.2g} of its bound ({where}), {worst_se:.2g} SE where the SE bound governs; "
        f"{len(failures)} beyond it{': ' + ', '.join(failures[:5]) if failures else ''}; "
        f"{capped} MaxIterations fits, 0 designs refused; "
        f"{time.perf_counter() - start:.1f} s",
    )
