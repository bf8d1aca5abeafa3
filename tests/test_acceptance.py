"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from fedmoo.core import ExperimentConfig, IndicatorMatrix, client_stream
from fedmoo.federation import (client_update_stochastic, descent_step_limit,
                               pick_weighted_output, run_experiment, server_aggregate,
                               strongly_convex_step_limit)
from fedmoo.metrics import fit_rate, rounds_to_threshold
from fedmoo.minnorm import solve_min_norm
from fedmoo.problems import (quadratic_suite, synthetic_classification_suite,
                             toy_nonconvex_suite)
from fedmoo.reporting import round_columns, write_rounds_csv
from fedmoo.verify import check_closed_form, check_descent, check_mgd_reduction


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def auto_centers(S, d, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((S, d))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def test_01_min_norm_solver_soundness(minnorm_oracle):
    result, elapsed = minnorm_oracle
    report(1, result.passed and elapsed < 10.0, f"{result.line()}, {elapsed:.1f}s (<10s)")


def test_02_closed_form_agreement():
    result = check_closed_form()
    report(2, result.passed, result.line())


def test_03_mgd_reduction_bit_identical():
    A = IndicatorMatrix.all_ones(2, 1)
    prob = quadratic_suite(4, A, centers=auto_centers(2, 4, 77), seed=77)
    result = check_mgd_reduction(prob, 77, rounds=100)
    report(3, result.passed, result.line())


def test_04_common_descent_property():
    A = IndicatorMatrix.all_ones(2, 1)
    suites = [(5, quadratic_suite(3, A, centers=auto_centers(2, 3, 5), seed=5)),
              (6, toy_nonconvex_suite(3, A, n_terms=5, seed=6))]
    result = check_descent(suites, rounds=200)
    report(4, result.passed, result.line())


def test_05_linear_rate_strongly_convex():
    start = time.perf_counter()
    A = IndicatorMatrix.all_ones(2, 4)
    prob = quadratic_suite(10, A, centers=auto_centers(2, 10, 42), heterogeneity=0.3,
                           n_per_client=32, seed=42)
    eta = 0.1
    assert eta <= strongly_convex_step_limit(prob.smoothness, prob.mu)
    assert eta >= 1.0 / (prob.mu * 200)
    cfg = ExperimentConfig(indicator=A, d=10, K=5, T=200,
                           eta_global=eta, eta_local=1e-3, seed=7)
    traj = run_experiment(cfg, prob)
    dq = round_columns(traj)["delta_Q"]
    fit = fit_rate(dq, (10, 100), model="exponential")
    elapsed = time.perf_counter() - start
    ok = (fit.slope < 0 and fit.residual < 0.1 * abs(fit.slope)
          and dq[-1] <= 1e-6 and elapsed < 5.0)
    report(5, ok, f"delta_Q exponential fit on [10,100]: slope {fit.slope:.4f}, "
                  f"residual/|slope| {fit.residual / abs(fit.slope):.2%} (<10%), "
                  f"delta_Q(200) = {dq[-1]:.2e} (<=1e-6), {elapsed:.1f}s (<5s)")


def test_06_neighborhood_shrinkage():
    A = IndicatorMatrix.all_ones(2, 4)
    prob = quadratic_suite(8, A, centers=auto_centers(2, 8, 5), heterogeneity=0.5,
                           curvature_spread=0.5, n_per_client=16, seed=5)
    plateaus = []
    for eta_l in (1e-1, 1e-2, 1e-3, 1e-4):
        cfg = ExperimentConfig(indicator=A, d=8, K=10, T=300,
                               eta_global=0.2, eta_local=eta_l, seed=11)
        traj = run_experiment(cfg, prob)
        dq = round_columns(traj)["delta_Q"]
        plateaus.append(float(dq[-60:].mean()))  # mean over last 20% of rounds
    ok = all(plateaus[i + 1] <= plateaus[i] for i in range(3))
    report(6, ok, "delta_Q plateau vs eta_local 1e-1..1e-4 at K=10: "
                  + " >= ".join(f"{p:.2e}" for p in plateaus)
                  + " (monotone non-increasing)")


def test_07_nonconvex_sublinear_trend():
    A = IndicatorMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
    avgs = {}
    for T in (250, 1000):
        prob = toy_nonconvex_suite(6, A, n_terms=6, heterogeneity=0.3, seed=21)
        eta = descent_step_limit(prob.smoothness)
        cfg = ExperimentConfig(indicator=A, d=6, K=5, T=T,
                               eta_global=eta, eta_local=0.05 / np.sqrt(T), seed=3)
        traj = run_experiment(cfg, prob)
        avgs[T] = float(round_columns(traj)["dbar_norm_sq"].mean())
    ratio = avgs[250] / avgs[1000]
    ok = ratio >= 2.5
    report(7, ok, f"mean dbar_norm_sq over [1,T]: T=250 {avgs[250]:.3e}, "
                  f"T=1000 {avgs[1000]:.3e}, ratio {ratio:.2f} (>=2.5, ideal 4)")


def test_08_stochastic_trend():
    A = IndicatorMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
    mins = {400: [], 6400: []}
    for seed in range(5):
        prob = toy_nonconvex_suite(5, A, n_terms=6, heterogeneity=0.3, amp_noise=0.5,
                                   n_per_client=64, seed=100 + seed)
        cap = descent_step_limit(prob.smoothness)
        for T in (400, 6400):
            cfg = ExperimentConfig(indicator=A, d=5, K=3, T=T,
                                   eta_global=min(cap, 2.0 / np.sqrt(T)),
                                   eta_local=0.3 / T ** 0.25,
                                   batch_size=16, seed=seed)
            traj = run_experiment(cfg, prob)
            mins[T].append(float(round_columns(traj)["running_min_dbar"][-1]))
    m_short, m_long = np.mean(mins[400]), np.mean(mins[6400])
    ratio = m_short / m_long
    ok = ratio >= 2.0
    report(8, ok, f"running-min dbar_norm_sq over 5 seeds: T=400 {m_short:.3e}, "
                  f"T=6400 {m_long:.3e}, ratio {ratio:.2f} (>=2)")


def test_09_local_step_speedup():
    A = IndicatorMatrix.all_ones(2, 5)
    rounds = {1: [], 10: []}
    for seed in range(3):
        prob = synthetic_classification_suite(12, A, n_per_client=40, partition="label_skew",
                                              labels_per_client=2, n_components=10, ridge=0.05,
                                              seed=300 + seed)
        for K in (1, 10):
            cfg = ExperimentConfig(indicator=A, d=12, K=K, T=200,
                                   eta_global=0.5, eta_local=0.05,
                                   normalize_delta_by_K=False, seed=seed)
            traj = run_experiment(cfg, prob)
            losses = np.vstack([r.losses for r in traj.records])
            gap = (losses - prob.f_min[None, :]).max(axis=1)
            rounds[K].append(rounds_to_threshold(gap, 1e-2))
    ok = all(r is not None for r in rounds[1] + rounds[10])
    if ok:
        m1, m10 = float(np.mean(rounds[1])), float(np.mean(rounds[10]))
        ok = m10 <= m1 / 3.0
        report(9, ok, f"rounds to 1e-2 loss gap, label-skew(2), 3 seeds: "
                      f"K=1 mean {m1:.1f} {rounds[1]}, K=10 mean {m10:.1f} "
                      f"{rounds[10]} ({m1 / m10:.1f}x, need >=3x)")
    else:
        report(9, False, f"threshold never crossed: K=1 {rounds[1]}, K=10 {rounds[10]}")


def test_10_batch_size_ordering():
    A = IndicatorMatrix.all_ones(2, 4)
    plateaus = {16: [], 64: [], "full": []}
    for seed in range(3):
        prob = quadratic_suite(6, A, centers=auto_centers(2, 6, 40 + seed), heterogeneity=0.3,
                               n_per_client=128, data_spread=1.5, seed=40 + seed)
        for batch in (16, 64, "full"):
            cfg = ExperimentConfig(indicator=A, d=6, K=5, T=300, eta_global=0.3, eta_local=1e-2,
                                   batch_size=None if batch == "full" else batch,
                                   seed=seed)
            traj = run_experiment(cfg, prob)
            plateaus[batch].append(float(round_columns(traj)["delta_Q"][-60:].mean()))
    p16, p64, pf = (float(np.mean(plateaus[b])) for b in (16, 64, "full"))
    ok = p64 <= 2.0 * p16 and pf <= 2.0 * p64
    report(10, ok, f"delta_Q plateau vs batch, 3 seeds: 16 -> {p16:.2e}, "
                   f"64 -> {p64:.2e}, full -> {pf:.2e} "
                   f"(non-increasing within noise factor 2)")


def test_11_weighted_output_sampler():
    # T=5 with mu*eta/2 = 0.3: weights w_t = 0.7**(1-t)
    mu, eta = 0.6, 1.0
    A = IndicatorMatrix.all_ones(2, 1)
    prob = quadratic_suite(2, A, centers=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0)
    cfg = ExperimentConfig(indicator=A, d=2, K=1, T=5,
                           eta_global=0.4, eta_local=0.0, seed=3)
    traj = run_experiment(cfg, prob)
    snaps = [r.x_snapshot for r in traj.records]
    weights = 0.7 ** (1.0 - np.arange(1, 6))
    probs = weights / weights.sum()
    n_draws = 100_000
    counts = np.zeros(5)
    for rep in range(n_draws):
        picked = pick_weighted_output(traj, mu, eta, client_stream(9, 0, rep, 0))
        t = next(i for i, s in enumerate(snaps) if np.array_equal(picked, s))
        counts[t] += 1
    freq = counts / n_draws
    se = np.sqrt(probs * (1.0 - probs) / n_draws)
    z = np.abs(freq - probs) / se
    ok = bool((z <= 3.0).all())
    report(11, ok, f"10^5 draws, T=5, mu*eta/2=0.3: max |freq-p|/SE = {z.max():.2f} "
                   f"(<=3), freq {np.round(freq, 4)} vs p {np.round(probs, 4)}")


def test_12_determinism_serial_vs_parallel(tmp_path):
    A = IndicatorMatrix.all_ones(2, 4)
    prob = quadratic_suite(6, A, centers=auto_centers(2, 6, 9), heterogeneity=0.4, n_per_client=32,
                           seed=9)
    cfg = ExperimentConfig(indicator=A, d=6, K=4, T=40, eta_global=0.3, eta_local=5e-3,
                           batch_size=8, seed=13)
    blobs = []
    for rep in range(2):
        path = tmp_path / f"rounds_{rep}.csv"
        traj = run_experiment(cfg, prob)
        write_rounds_csv(path, traj)
        blobs.append(path.read_bytes())

    # Replay the run with each round's clients computed on 4 threads in
    # reversed client order, stack their updates in client order, then
    # aggregate, solve and step as the server does.
    def client(x, i, t):
        return client_update_stochastic(x, i, A.client_objectives[i], cfg.K, cfg.eta_local,
                                        cfg.batch_size, prob, cfg.seed, t, cfg.sample_sharing)[0]

    x = cfg.initial_point()
    points_equal = True
    with ThreadPoolExecutor(max_workers=4) as pool:
        for rec in traj.records:
            points_equal &= np.array_equal(x, rec.x_snapshot)
            deltas = list(pool.map(lambda i: client(x, i, rec.t), reversed(range(cfg.M))))
            delta = server_aggregate(np.vstack(deltas[::-1]), A, cfg.K, cfg.normalize_delta_by_K)
            x = x - cfg.eta_global * solve_min_norm(delta, tol=1e-10).direction
    points_equal &= np.array_equal(x, traj.final_point)
    ok = blobs[0] == blobs[1] and points_equal
    report(12, ok, f"stochastic run repeated serially: rounds.csv byte-identical = "
                   f"{blobs[0] == blobs[1]} ({len(blobs[0])} bytes); replay on 4 client "
                   f"threads in reversed order matches every round's point bit for bit = "
                   f"{points_equal}")
