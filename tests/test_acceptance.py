"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines live; the
full-size Monte Carlo cells (10^6 paths each) take a few minutes in
total.  Published-table values are asserted at +-0.02 absolute, exact
tree identities at rational equality, and the statistical checks use
valid (bounded-moment) estimators throughout; see notes inside
criterion 4 for why the raw mean of the tilted density admits no
standard-error band.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from insider_hedge.cli import RunConfig, run_oracle_suite, run_table_indicator, run_table_point
from insider_hedge.insider_signal import (
    SignalDraws,
    interval_signal_from_prices,
    point_signal_from_price,
)
from insider_hedge.model_core import ModelParams, bs_call_price, price_from_brownian, rn_density
from insider_hedge.np_solver import alpha_from_k, solve_k_for_alpha, solve_k_for_epsilon
from insider_hedge.tree_oracle import (
    achievable_levels,
    build_atom_table,
    exact_quantile_hedge,
    exhaustive_optimality_check,
    perturb_atom,
    random_market,
    reference_market,
    verify_theorems,
)
from fractions import Fraction

from test_insider_signal import density_indicator_at, qg_density_indicator
from test_measure_engine import full_sample, independent_d, seeded_batch
from test_np_solver import synthetic_batch

N_PATHS = 1_000_000

# ---------------------------------------------------------------------------
# published tables (None marks the "<0.01" / "<0.001" cells)
# ---------------------------------------------------------------------------

LEVELS = tuple(float(x) for x in range(105, 116))
EPSILONS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)

TABLE_POINT = {
    0.01: (0.05, 0.09, 0.13, 0.17, 0.22, 0.27, 0.32, 0.37, 0.42, 0.46, 0.51),
    0.05: (None, 0.01, 0.04, 0.07, 0.10, 0.14, 0.18, 0.23, 0.28, 0.33, 0.38),
    0.10: (None, None, 0.01, 0.03, 0.05, 0.08, 0.12, 0.16, 0.21, 0.25, 0.30),
    0.15: (None, None, None, 0.01, 0.03, 0.05, 0.08, 0.12, 0.16, 0.21, 0.25),
    0.20: (None, None, None, None, 0.01, 0.03, 0.06, 0.09, 0.13, 0.17, 0.21),
    0.25: (None, None, None, None, None, 0.02, 0.04, 0.07, 0.10, 0.14, 0.18),
}

INTERVALS = ((109.0, 111.0), (108.0, 112.0), (107.0, 113.0), (112.0, 114.0), (106.0, 108.0))

TABLE_INDICATOR = {
    (109.0, 111.0): (0.272, 0.142, 0.087, 0.053, 0.032, 0.017),
    (108.0, 112.0): (0.284, 0.150, 0.088, 0.055, 0.033, 0.019),
    (107.0, 113.0): (0.296, 0.157, 0.095, 0.059, 0.034, 0.020),
    (112.0, 114.0): (0.413, 0.277, 0.209, 0.164, 0.129, 0.102),
    (106.0, 108.0): (0.135, 0.039, 0.010, 0.001, None, None),
}

# E[min(D, 10) | G] frozen from dense-grid quadrature of each sampling
# law (4e6 points; truncation below 1e-12)
CAPPED_TARGETS_POINT = {
    ("bridge_exact", 105.0): 0.137906,
    ("bridge_exact", 110.0): 0.364299,
    ("bridge_exact", 115.0): 0.604427,
    ("paper_shift", 105.0): 0.199551,
    ("paper_shift", 110.0): 0.552892,
    ("paper_shift", 115.0): 0.902013,
}
CAPPED_TARGETS_INTERVAL = {
    ((109.0, 111.0), 1): 0.368306,
    ((109.0, 111.0), 0): 0.985354,
    ((112.0, 114.0), 1): 0.515792,
}

BS_CALL_REF = 1.68092773478  # 40-digit closed-form evaluation


@pytest.fixture(scope="module")
def params():
    return ModelParams(mu=0.08, sigma=0.25, s0=100.0, strike=110.0, t_expiry=0.25, delta=0.02)


@pytest.fixture(scope="module")
def point_cells(params):
    config = RunConfig(model=params, levels=LEVELS, epsilons=EPSILONS,
                       n_paths=N_PATHS, seed=20240801)
    return run_table_point(config)


@pytest.fixture(scope="module")
def indicator_cells(params):
    config = RunConfig(model=params, signal_kind="interval", intervals=INTERVALS,
                       epsilons=EPSILONS, n_paths=N_PATHS, seed=20240802)
    return run_table_indicator(config)


def report(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f" [{len(failures)} problem(s), first: {failures[0]}]" if failures else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{detail}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_point_table(point_cells):
    """Published point-signal table reproduced at +-0.02 with n = 10^6.

    The exact-conditioning mode is the one that reproduces the table
    (resolved from the published values themselves: the shift recipe
    yields a divergent tilted density and alphas far above every
    printed value, see the README's statistical notes).  The shift
    mode is still computed side by side, on the same normals, and the
    cells where the two modes' alpha columns differ by more than 3
    combined standard errors are listed below; with shared normals the
    band marks columns far apart, not independent estimates that
    disagree.
    """
    failures = []
    get = {(c.signal, c.epsilon, c.mode): c for c in point_cells}

    checked = hits = 0
    floor_violations = []
    disagreements = []
    for eps in EPSILONS:
        for level, printed in zip(LEVELS, TABLE_POINT[eps]):
            bridge = get[(f"S={level:g}", eps, "bridge_exact")]
            shift = get[(f"S={level:g}", eps, "paper_shift")]
            if printed is not None and printed >= 0.05:
                checked += 1
                if abs(bridge.alpha - printed) <= 0.02:
                    hits += 1
                else:
                    print(f"  miss: eps={eps}, S={level:g}: {bridge.alpha:.4f} vs {printed}")
            elif printed is None:
                # cells the source prints as "<0.01" (both modes stay small)
                if bridge.alpha >= 0.02:
                    floor_violations.append(f"bridge eps={eps}, S={level:g}: {bridge.alpha:.4f}")
                if shift.alpha >= 0.02:
                    floor_violations.append(f"shift eps={eps}, S={level:g}: {shift.alpha:.4f}")
            band = 3.0 * math.hypot(bridge.alpha_stderr, shift.alpha_stderr)
            if abs(bridge.alpha - shift.alpha) > band:
                disagreements.append((eps, level, bridge.alpha, shift.alpha))

    print(f"  cells >= 0.05 within +-0.02: {hits}/{checked} (need >= 90%)")
    print(f"  mode disagreement (>3 combined SE) at {len(disagreements)} of 66 cells, e.g.:")
    for eps, level, a_b, a_s in disagreements[:3]:
        print(f"    eps={eps}, S={level:g}: bridge={a_b:.4f} shift={a_s:.4f}")
    if hits < math.ceil(0.9 * checked):
        failures.append(f"only {hits}/{checked} cells within tolerance")
    failures.extend(floor_violations)
    if not disagreements:
        failures.append("expected the two conditioning modes to disagree somewhere")
    report(1, "point-signal table", failures)


def test_criterion_2_indicator_table(indicator_cells):
    """Published interval-indicator table reproduced at +-0.02, n = 10^6 draws per interval."""
    failures = []
    get = {(c.signal, c.epsilon): c for c in indicator_cells}
    checked = hits = 0
    for (lo, hi), row in TABLE_INDICATOR.items():
        for eps, printed in zip(EPSILONS, row):
            cell = get[(f"S=[{lo:g}..{hi:g}]", eps)]
            if printed is not None and printed >= 0.05:
                checked += 1
                if abs(cell.alpha - printed) <= 0.02:
                    hits += 1
                else:
                    print(f"  miss: eps={eps}, [{lo:g},{hi:g}]: {cell.alpha:.4f} vs {printed}")
            elif printed is None:
                # cells the source prints as "<0.001"
                if cell.alpha >= 0.005:
                    failures.append(f"eps={eps}, [{lo:g},{hi:g}]: alpha={cell.alpha:.5f} >= 0.005")
    print(f"  cells >= 0.05 within +-0.02: {hits}/{checked} (need >= 90%)")
    if hits < math.ceil(0.9 * checked):
        failures.append(f"only {hits}/{checked} cells within tolerance")
    report(2, "indicator-signal table", failures)


def test_criterion_3_closed_form_consistency(params):
    """Call price against a high-precision oracle and a tilted MC estimate."""
    failures = []
    price = bs_call_price(params)
    if abs(price - BS_CALL_REF) > 1e-9:
        failures.append(f"closed form {price} vs reference {BS_CALL_REF}")
    if abs(price - 1.6817) > 1e-3:
        failures.append(f"closed form {price} vs published 1.6817 beyond 1e-3")

    rng = np.random.default_rng(31)
    w = rng.normal(0.0, math.sqrt(params.t_expiry), N_PATHS)
    est = (np.maximum(price_from_brownian(w, params.t_expiry, params) - params.strike, 0.0)
           * rn_density(w, params))
    se = est.std(ddof=1) / math.sqrt(N_PATHS)
    gap = abs(est.mean() - price)
    print(f"  closed form {price:.6f}; MC {est.mean():.6f} +- {se:.6f} (|gap| = {gap:.6f})")
    if gap > 4.0 * se:
        failures.append(f"MC estimate off by {gap / se:.1f} SE")
    report(3, "closed-form price consistency", failures)


def test_criterion_4_unit_mass(params):
    """Unit conditional mass of the tilted density, verified validly.

    D has tail index 1 + delta/T (about 1.08 here): mean one, infinite
    variance, so a plain sample mean carries no usable standard error
    at any feasible n.  The invariant is therefore checked by
    (i) deterministic quadrature of E[D | G] through the actual density
    formulas, (ii) capped-mean Monte Carlo against frozen quadrature
    targets (valid CLT), and (iii) the exact tree identity.  The shift
    mode has E[D] = +infinity (its law is not the exact conditional
    law), so only its capped pipeline statistic is asserted; raw means
    are printed for transparency.
    """
    failures = []
    t, td, theta = params.t_expiry, params.t_signal, params.theta
    call = bs_call_price(params)

    def h_z_phi(w):
        s = params.s0 * math.exp(params.sigma * w + (params.mu - params.sigma**2 / 2) * t)
        z = math.exp(-theta * w - theta * theta * t / 2)
        phi = math.exp(-w * w / (2 * t)) / math.sqrt(2 * math.pi * t)
        return max(s - params.strike, 0.0) * z * phi

    # (i) E[D | G] = int D(w) f_cond(w) dw; by the Bayes identity
    # f_cond = phi_T * p_T^g the integrand collapses to h z phi / C.
    # First check that identity holds pointwise through the package's
    # point D and interval dQ_G/dP (against the paper's p_T^g from
    # test_insider_signal), then integrate the collapsed form.
    w_k = float(np.log(params.strike / params.s0) / params.sigma
                - (params.mu - params.sigma**2 / 2) * t / params.sigma)
    for level in (105.0, 110.0, 115.0):
        sig = point_signal_from_price(level, params)
        m, v = sig.g_w * t / td, t * params.delta / td
        z = np.linspace(-6.0, 6.0, 501)
        grid = m + math.sqrt(v) * z
        f_cond = np.exp(-((grid - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        # the package's point D, computed from the bridge normals that give the grid
        draws = SignalDraws(z)
        lhs = independent_d(sig, draws, params) * f_cond
        rhs = np.array([h_z_phi(w) for w in grid]) / call
        if not np.allclose(lhs, rhs, rtol=1e-9, atol=1e-300):
            failures.append(f"point Bayes identity broken at level {level}")
    total, err = quad(h_z_phi, w_k, math.inf)
    if abs(total / call - 1.0) > 1e-8:
        failures.append(f"point quadrature unit mass: {total / call}")
    print(f"  quadrature E[D|G] (any g): {total / call:.10f}")

    for lo, hi in ((109.0, 111.0), (112.0, 114.0)):
        for observed in (1, 0):
            sig = interval_signal_from_prices(lo, hi, params, observed=observed)
            # restrict to the in-the-money region where both sides are nonzero
            grid = np.linspace(w_k + 1e-6, 4.0, 2001)
            p_vals = density_indicator_at(grid, t, sig, params)
            phi_t = np.exp(-grid**2 / (2 * t)) / math.sqrt(2 * math.pi * t)
            lhs = (np.maximum(price_from_brownian(grid, t, params) - params.strike, 0.0)
                   * qg_density_indicator(grid, sig, params) / call) * (phi_t * p_vals)
            rhs = np.array([h_z_phi(w) for w in grid]) / call
            ok = np.isfinite(lhs)
            if not (np.all(ok) and np.allclose(lhs, rhs, rtol=1e-9, atol=1e-300)):
                failures.append(f"indicator Bayes identity broken on [{lo},{hi}] G={observed}")

    # (ii) capped means against frozen quadrature targets, n = 10^6
    for (mode, level), target in CAPPED_TARGETS_POINT.items():
        sig = point_signal_from_price(level, params, mode)
        d = full_sample(seeded_batch(sig, N_PATHS, params, seed=41))
        capped = np.minimum(d, 10.0)
        se = capped.std(ddof=1) / math.sqrt(N_PATHS)
        gap = abs(capped.mean() - target)
        raw = d.mean()
        print(f"  point {level:g} {mode}: E[D^10]={capped.mean():.6f} vs {target} "
              f"(4SE={4 * se:.5f}); raw mean {raw:.3f}")
        if gap > 4.0 * se + 1e-5:
            failures.append(f"capped mean off for point {level} {mode}: {gap:.6f}")
    for ((lo, hi), observed), target in CAPPED_TARGETS_INTERVAL.items():
        sig = interval_signal_from_prices(lo, hi, params, observed=observed)
        d = full_sample(seeded_batch(sig, N_PATHS, params, seed=42))
        capped = np.minimum(d, 10.0)
        se = capped.std(ddof=1) / math.sqrt(N_PATHS)
        gap = abs(capped.mean() - target)
        print(f"  interval [{lo:g},{hi:g}] G={observed}: E[D^10]={capped.mean():.6f} "
              f"vs {target} (4SE={4 * se:.5f}); raw mean {d.mean():.3f}")
        if gap > 4.0 * se + 1e-5:
            failures.append(f"capped mean off for [{lo},{hi}] G={observed}: {gap:.6f}")

    # (iii) exact counterpart on the tree
    table = build_atom_table(reference_market())
    for g in (0, 1):
        pg = sum(a.prob for a in table.atoms if a.g == g)
        mean_d = sum(a.prob * a.d_star for a in table.atoms if a.g == g) / pg
        if mean_d != 1:
            failures.append(f"tree E[D|G={g}] = {mean_d}")
    report(4, "unit conditional mass of D", failures)


def test_criterion_5_tree_theorem_suite():
    """Exact identities on the reference market and 100 seeded instances."""
    failures = []
    ref_table = build_atom_table(reference_market())
    ref_report = verify_theorems(ref_table)
    if not ref_report.passed:
        failures.append(f"reference market: {ref_report.failures[:1]}")
    if verify_theorems(perturb_atom(ref_table)).passed:
        failures.append("negative control not detected")
    n_checks = ref_report.n_checks
    for seed in range(100):
        rep = verify_theorems(build_atom_table(random_market(seed)))
        n_checks += rep.n_checks
        if not rep.passed:
            failures.append(f"seed {seed}: {rep.failures[:1]}")
    print(f"  {n_checks} exact identities over 101 markets; negative control detected")
    report(5, "tree theorem suite", failures)


def test_criterion_6_exhaustive_optimality():
    """Threshold solutions match brute-force enumeration at achievable levels."""
    failures = []
    markets = [("reference", reference_market())] + \
              [(f"seed {s}", random_market(s)) for s in range(100)]
    n_levels = 0
    for name, market in markets:
        table = build_atom_table(market)
        for g in market.signal_values:
            # one enumeration per signal value checks both sides at every achievable level
            n_levels += len(achievable_levels(table, g))
            failures.extend(f"{name}: {f}" for f in exhaustive_optimality_check(table, g))
    if n_levels != 430:
        failures.append(f"{n_levels} achievable levels, want 430 across the 101 markets")
    # the known non-existence case must be flagged, not mis-solved
    ref = build_atom_table(reference_market())
    sol = exact_quantile_hedge(ref, 1, epsilon=Fraction(1, 4))
    if sol.exact or sol.success_prob != 1 or sol.alpha != 1:
        failures.append(f"non-existence case handled wrongly: {sol}")
    print(f"  {n_levels} achievable levels enumerated across 101 markets, both problems")
    report(6, "exhaustive optimality", failures)


def test_criterion_7_solver_dualities():
    """Round-trip duality and monotonicity on 10^3 synthetic batches."""
    failures = []
    rng = np.random.default_rng(77)
    grid = np.round(np.linspace(0.0, 1.0, 21), 2)
    for i in range(1000):
        n = int(rng.integers(5, 400))
        kind = i % 3
        if kind == 0:
            d = rng.exponential(size=n)
        elif kind == 1:
            d = rng.lognormal(sigma=1.5, size=n)
        else:  # mixed atom at zero
            d = rng.exponential(size=n) * (rng.random(n) > 0.3)
        if d.max() == 0.0:
            continue
        d = d * (0.9 / d.mean())
        batch = synthetic_batch(d)

        distinct = len(np.unique(d[d > 0])) == (d > 0).sum()
        eps = float(rng.uniform(0.0, 1.0))
        k1 = solve_k_for_epsilon(batch, eps)
        a1 = alpha_from_k(batch, k1).alpha
        k2, _ = solve_k_for_alpha(batch, a1)
        if distinct and k2 != k1:
            failures.append(f"batch {i}: round trip {k1} -> {a1} -> {k2}")

        alphas = [alpha_from_k(batch, solve_k_for_epsilon(batch, e)).alpha for e in grid]
        if any(lo > hi for lo, hi in zip(alphas[1:], alphas[:-1])):
            failures.append(f"batch {i}: alpha not monotone in epsilon")
        succ = []
        for a in grid:
            k, _ = solve_k_for_alpha(batch, float(a))
            succ.append(np.searchsorted(np.sort(d), k, side="right") / n)
        if any(lo > hi for lo, hi in zip(succ[:-1], succ[1:])):
            failures.append(f"batch {i}: success not monotone in alpha")
        if failures:
            break
    print("  1000 synthetic batches: exact round trips, monotone maps")
    report(7, "solver dualities and monotonicity", failures)


def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical CLI outputs for identical config and seed."""
    failures = []

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "insider_hedge.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for cmd, extra in (("table-point", ("--levels", "108,110")),
                       ("table-indicator", ("--intervals", "109:111"))):
        outs = []
        stdouts = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            path = tmp_path / f"{cmd}-{tag}.csv"
            stdouts.append(run((cmd, *extra, "--epsilons", "0.1,0.25",
                                "--n-paths", "2000", "--seed", "9",
                                "--workers", workers, "--output", str(path))))
            outs.append(path.read_bytes())
        if not (outs[0] == outs[1] == outs[2]):
            failures.append(f"{cmd}: output files differ across runs/workers")
        if not (stdouts[0] == stdouts[1] == stdouts[2]):
            failures.append(f"{cmd}: stdout differs across runs/workers")

    o1 = run(("oracle", "--instances", "3", "--seed", "2"))
    o2 = run(("oracle", "--instances", "3", "--seed", "2"))
    if o1 != o2:
        failures.append("oracle: stdout differs between runs")
    print("  table-point, table-indicator, oracle: byte-identical reruns (workers 1 vs 4)")
    report(8, "CLI determinism", failures)


def test_published_tables_load_as_the_benchmark_loads_them(tmp_path):
    """perfbench/run.py checks its tables against this module's published values.

    It imports this module in a process of its own with only src and tests on
    sys.path, and a failed import fails the whole benchmark run; so the same
    import runs here in a fresh interpreter, without PYTHONPATH.
    """
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_acceptance as t; "
            "print(repr((t.LEVELS, t.EPSILONS, t.TABLE_POINT, t.TABLE_INDICATOR)))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "tests")],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == repr((LEVELS, EPSILONS, TABLE_POINT, TABLE_INDICATOR)) + "\n"
