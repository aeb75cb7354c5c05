"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools
import math
import time

import numpy as np
import pytest

import privustat as pv
from privustat import applications as apps
from privustat import boosting, coinpress, hajek
from privustat.dp import PrivacyBudget, scratch_budget
from privustat.errors import AuditFailure
from privustat.harness import audits
from privustat.ustat import Dataset, all_tuples

from oracles import (
    VarianceProfile,
    collision_ustat_variance,
    csr_edge_density,
    empirical_zetas,
    halved_bound_rows,
    rgg_triangle_theta,
    variance_of_ustat,
)


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. brute-force equivalence
# ---------------------------------------------------------------------------

def nested_loop_ustat(kernel_fn, points, k):
    total, count = 0.0, 0
    for combo in itertools.combinations(range(len(points)), k):
        total += kernel_fn([points[i] for i in combo])
        count += 1
    return total / count


def test_criterion_01_brute_force_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    checked = 0
    worst = 0.0
    for n in range(2, 9):
        for k in range(1, min(4, n) + 1):
            fam = all_tuples(n, k)
            eq = pv.equality_kernel(k)
            mean_k = pv.mean_kernel(k)
            for _ in range(50):
                pts = rng.integers(0, 3, size=n).astype(float)
                mine = pv.evaluate_ustat(eq, Dataset(pts), fam)
                oracle = nested_loop_ustat(
                    lambda xs: float(all(x == xs[0] for x in xs)), pts.tolist(), k
                )
                assert mine == oracle  # indicator sums are exact in floats
                real_pts = rng.uniform(-1, 1, size=n)
                mine_r = pv.evaluate_ustat(mean_k, Dataset(real_pts), fam)
                oracle_r = nested_loop_ustat(
                    lambda xs: sum(xs) / len(xs), real_pts.tolist(), k
                )
                worst = max(worst, abs(mine_r - oracle_r))
                assert mine_r == pytest.approx(oracle_r, abs=1e-12)
                checked += 2
    elapsed = time.perf_counter() - started
    report(
        1,
        elapsed < 10.0,
        f"{checked} dataset/kernel pairs match the nested-loop oracle "
        f"(worst real-kernel gap {worst:.2e}) in {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 2. variance formula
# ---------------------------------------------------------------------------

def test_criterion_02_variance_formula():
    started = time.perf_counter()
    m, n, reps = 20, 50, 10**4
    rng = np.random.default_rng(42)
    pairs = n * (n - 1) // 2
    us = np.empty(reps)
    for i in range(reps):
        counts = np.bincount(rng.integers(0, m, size=n), minlength=m)
        us[i] = (counts * (counts - 1) // 2).sum() / pairs
    mc = us.var(ddof=1)
    dev = us - us.mean()
    se_mc = math.sqrt(((dev**4).mean() - (reps - 3) / (reps - 1) * (dev**2).mean() ** 2) / reps)

    sampler = lambda g, size: g.integers(0, m, size=size)
    z1 = empirical_zetas(pv.collision_kernel(), sampler, 1, 4 * 10**5, 1)
    z2 = empirical_zetas(pv.collision_kernel(), sampler, 2, 4 * 10**5, 2)
    formula = variance_of_ustat(VarianceProfile([z1.value, z2.value]), n, 2)
    w1 = math.comb(2, 1) * math.comb(n - 2, 1) / math.comb(n, 2)
    w2 = 1 / math.comb(n, 2)
    se_formula = math.hypot(w1 * z1.stderr, w2 * z2.stderr)

    closed = collision_ustat_variance(np.full(m, 1 / m), n)
    gap_formula = abs(mc - formula)
    gap_closed = abs(mc - closed)
    tol_formula = 3 * math.hypot(se_mc, se_formula)
    tol_closed = 3 * se_mc
    elapsed = time.perf_counter() - started
    report(
        2,
        gap_formula <= tol_formula and gap_closed <= tol_closed and elapsed < 120,
        f"MC var {mc:.3e} vs conditional-variance formula {formula:.3e} "
        f"(gap {gap_formula:.2e} <= {tol_formula:.2e}) and closed form {closed:.3e} "
        f"(gap {gap_closed:.2e} <= {tol_closed:.2e}), {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 3. smoothness audit
# ---------------------------------------------------------------------------

def test_criterion_03_smoothness_audit(monkeypatch):
    started = time.perf_counter()
    margins = []
    for n in (4, 5, 6):
        for eps in (0.5, 1.0):
            rep = audits.smoothness_audit(n=n, eps=eps, xi=0.0, c_range=1.0)
            margins.append((n, eps, rep.worst_dominance_margin, rep.worst_smoothness_margin))
            assert rep.ok
    fault_tripped = False
    monkeypatch.setattr(audits, "hajek_rows", halved_bound_rows)
    try:
        audits.smoothness_audit(n=6, eps=1.0, xi=0.0, c_range=1.0)
    except AuditFailure:
        fault_tripped = True
    elapsed = time.perf_counter() - started
    worst = min(m[2] for m in margins)
    report(
        3,
        fault_tripped and elapsed < 30,
        f"zero violations over n<=6, eps in {{0.5, 1}} (worst dominance margin "
        f"{worst:.3f}); halved bound trips the audit; {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 4. noise laws
# ---------------------------------------------------------------------------

def test_criterion_04_noise_laws():
    cap = 2.5 / math.sqrt(10**6)
    lap = audits.noise_gof("laplace", 10**6, 11)
    qua = audits.noise_gof("quartic", 10**6, 12)
    report(
        4,
        lap.ks_gap <= cap and qua.ks_gap <= cap,
        f"KS gaps laplace {lap.ks_gap:.2e}, quartic {qua.ks_gap:.2e} <= {cap:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. coverage of the boosted all-tuples estimator
# ---------------------------------------------------------------------------

def test_criterion_05_boosted_coverage():
    started = time.perf_counter()
    theta, n, eps, alpha, trials = 1.0, 2000, 1.0, 0.05, 10**3
    kernel = pv.mean_kernel(2, tau=0.5)
    plan = boosting.BoostPlan.for_dataset(n, 2, alpha)
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng((50, trial))
        data = Dataset(rng.normal(theta, 1.0, n))
        (rep,) = boosting.median_of_means(
            lambda chunks, rngs, branches: coinpress.all_tuples_estimates(
                kernel, chunks, r=5.0, tau=0.5, eps=eps, seed=rngs, budgets=branches
            ),
            [data],
            plan,
            rng,
            [scratch_budget()],
        )
        hits += int(abs(rep.estimate - theta) <= rep.radius)
    coverage = hits / trials
    elapsed = time.perf_counter() - started
    report(
        5,
        coverage >= 0.93 and elapsed < 600,
        f"coverage {coverage:.3f} >= 0.93 over {trials} trials "
        f"(q={plan.chunks}, chunk={plan.chunk_size}), {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# 6. degenerate-case ordering and rates
# ---------------------------------------------------------------------------

def test_criterion_06_degenerate_ordering_and_slopes():
    started = time.perf_counter()
    m, eps, trials = 100, 1.0, 200
    dist = apps.PerturbedUniform.uniform(m)
    theta = apps.collision_theta(dist)
    ns = (500, 1000, 2000)
    med_h, med_a = [], []
    ordering_ok = True
    for n in ns:
        errs_h, errs_a = [], []
        xi = apps.collision_xi(m, n)
        for trial in range(trials):
            rng = np.random.default_rng((123, n, trial))
            data = apps.sample_multinomial(dist, n, rng)
            rh = apps.private_collision_density(data, m, eps, xi, rng, scratch_budget())
            ra = coinpress.all_tuples_estimator(
                pv.collision_kernel(), data, r=1.0, tau=0.25, eps=eps, seed=rng,
                budget=scratch_budget(),
            )
            errs_h.append(abs(rh.estimate - theta))
            errs_a.append(abs(ra.estimate - theta))
        med_h.append(float(np.median(errs_h)))
        med_a.append(float(np.median(errs_a)))
        ordering_ok = ordering_ok and med_h[-1] < med_a[-1]
    slope_h = float(np.polyfit(np.log(ns), np.log(med_h), 1)[0])
    slope_a = float(np.polyfit(np.log(ns), np.log(med_a), 1)[0])
    elapsed = time.perf_counter() - started
    report(
        6,
        ordering_ok and -1.7 <= slope_h <= -1.2 and -1.25 <= slope_a <= -0.8,
        f"reweighting beats clip-release at every n {tuple(ns)} "
        f"(medians {[f'{v:.2e}' for v in med_h]} vs {[f'{v:.2e}' for v in med_a]}); "
        f"slopes {slope_h:.2f} in [-1.7,-1.2], {slope_a:.2f} in [-1.25,-0.8]; "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. uniformity tester power
# ---------------------------------------------------------------------------

def test_criterion_07_uniformity_power():
    started = time.perf_counter()
    m, delta, eps, alpha, trials = 50, 0.5, 1.0, 0.1, 300
    sweep = (8000, 16000, 32000, 64000, 128000)
    null = apps.PerturbedUniform.uniform(m)
    alt = apps.PerturbedUniform.half_split(m, delta)
    type1, type2 = [], []
    for n in sweep:
        r1 = r2 = 0
        for trial in range(trials):
            rng = np.random.default_rng((31, n, trial))
            if apps.boosted_uniformity_test(
                apps.sample_multinomial(null, n, rng), m, delta, eps, alpha, rng, scratch_budget()
            ).reject:
                r1 += 1
            if not apps.boosted_uniformity_test(
                apps.sample_multinomial(alt, n, rng), m, delta, eps, alpha, rng, scratch_budget()
            ).reject:
                r2 += 1
        type1.append(r1 / trials)
        type2.append(r2 / trials)
    monotone = all(b <= a for a, b in zip(type1, type1[1:])) and all(
        b <= a for a, b in zip(type2, type2[1:])
    )
    attained = [n for n, t1, t2 in zip(sweep, type1, type2) if t1 <= alpha and t2 <= alpha]
    elapsed = time.perf_counter() - started
    report(
        7,
        monotone and bool(attained),
        f"type-I {type1} and type-II {type2} both non-increasing; "
        f"both <= {alpha} from n = {attained[0] if attained else 'never'}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. triangle density in a geometric graph
# ---------------------------------------------------------------------------

# The band 5*r^2/n lies below the release's noise floor at small n and above
# theta itself at n = 300, so it is checked as a rate: the private error must
# fall faster than the band's n^-1, closing on it as n grows.
def test_criterion_08_rgg_triangle():
    started = time.perf_counter()
    r, eps, trials = 0.3, 1.0, 100
    ns = (300, 600, 1200)
    theta = rgg_triangle_theta(r, 10**6, seed=999)
    meds, bands, bottoms, edge_gaps, edge_limits = [], [], [], [], []
    for n in ns:
        errs, densities = [], []
        refused = 0
        for trial in range(trials):
            rng = np.random.default_rng((5, n, trial))
            g = apps.sample_rgg(n, r, rng)
            densities.append(csr_edge_density(g))
            rep = apps.private_triangle_density(g, eps, rng, scratch_budget())
            if rep.is_bottom:
                refused += 1
            else:
                errs.append(abs(rep.estimate - theta))
        meds.append(float(np.median(errs)))
        bands.append(5.0 * math.sqrt(r**4 / n**2))
        bottoms.append(refused)
        # edge density vs r^2/4 within 3 standard errors of the trial mean
        dens = np.asarray(densities)
        se = float(dens.std(ddof=1) / math.sqrt(trials))
        edge_gaps.append(abs(float(dens.mean()) - r**2 / 4))
        edge_limits.append(3 * se)
    edges_ok = all(gap <= limit for gap, limit in zip(edge_gaps, edge_limits))
    slope, intercept = np.polyfit(np.log(ns), np.log(meds), 1)
    band_slope, band_intercept = np.polyfit(np.log(ns), np.log(bands), 1)
    meets = math.exp((band_intercept - intercept) / (slope - band_slope))
    elapsed = time.perf_counter() - started
    per_n = "; ".join(
        f"n={n}: median {m:.2e}, band {b:.2e}, ratio {m / b:.1f}, {z} bottoms, "
        f"edge density gap {gap:.2e} <= {limit:.2e}"
        for n, m, b, z, gap, limit in zip(ns, meds, bands, bottoms, edge_gaps, edge_limits)
    )
    report(
        8,
        bool(slope <= -1.25) and edges_ok,
        f"median |estimate - theta| (theta = {theta:.2e}) {per_n}; "
        f"slope {slope:.2f} <= -1.25, meets the band near n = {meets:.2g}; "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. adversarial fixture
# ---------------------------------------------------------------------------

def test_criterion_09_adversarial_fixture():
    fix = audits.adversarial_fixture(60, 2, 0.5)
    margins = audits.fixture_projection_margins(fix)
    gap_ok = margins["direct_gap"] >= fix.gap_lower_bound
    proj_ok = (
        margins["base"]["max_abs_projection_deviation"] <= fix.xi
        and margins["shifted"]["max_abs_projection_deviation"] <= fix.xi
    )
    report(
        9,
        gap_ok and proj_ok,
        f"gap {margins['direct_gap']:.4e} >= bound {fix.gap_lower_bound:.4e}; "
        f"projection deviations {margins['base']['max_abs_projection_deviation']:.3f}, "
        f"{margins['shifted']['max_abs_projection_deviation']:.3f} <= xi {fix.xi:.3f}",
    )


# ---------------------------------------------------------------------------
# 10. budget exactness
# ---------------------------------------------------------------------------

def test_criterion_10_budget_exactness():
    rng = np.random.default_rng(77)
    checked = []
    for i in range(20):
        eps = float(rng.uniform(0.2, 2.0))
        pipeline = ("naive", "all", "subsampled", "hajek", "pipeline", "triangle",
                    "uniformity", "boosted")[i % 8]
        budget = PrivacyBudget(10.0)
        if pipeline in ("naive", "all", "subsampled", "hajek"):
            n = int(rng.integers(40, 120))
            data = apps.sample_multinomial(apps.PerturbedUniform.uniform(10), n, rng)
            if pipeline == "naive":
                coinpress.naive_estimator(
                    pv.collision_kernel(), data, 1.0, 0.25, eps, rng, budget=budget
                )
            elif pipeline == "all":
                coinpress.all_tuples_estimator(
                    pv.collision_kernel(), data, 1.0, 0.25, eps, rng, budget=budget
                )
            elif pipeline == "subsampled":
                coinpress.subsampled_estimator(
                    pv.collision_kernel(), data, 1.0, 0.25, eps, 300, rng, budget=budget
                )
            else:
                apps.private_collision_density(
                    data, 10, eps, apps.collision_xi(10, n), rng, budget
                )
            declared = eps
        elif pipeline == "pipeline":
            data = Dataset(rng.normal(0.5, 1.0, 240))
            pv.subgaussian_pipeline(
                pv.mean_kernel(2, 0.5), data, 4.0, 0.5, eps, 0.05, rng, budget=budget
            )
            declared = eps
        elif pipeline == "triangle":
            g = apps.sample_rgg(60, 0.8, rng)
            apps.private_triangle_density(g, eps, rng, budget)
            declared = 2 * eps
        elif pipeline == "uniformity":
            data = apps.sample_multinomial(apps.PerturbedUniform.uniform(10), 300, rng)
            apps.boosted_uniformity_test(data, 10, 0.5, eps, None, rng, budget)
            declared = eps
        else:
            data = apps.sample_multinomial(apps.PerturbedUniform.uniform(10), 800, rng)
            apps.boosted_uniformity_test(data, 10, 0.5, eps, 0.2, rng, budget)
            declared = eps
        checked.append(abs(budget.spent - declared))
    worst = max(checked)
    report(
        10,
        worst <= 1e-9,
        f"20 random pipeline configurations: worst |ledger - declared| = {worst:.2e}",
    )
