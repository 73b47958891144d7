"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (run with -s to see them all). Tolerances and runtime
budgets are asserted, not just reported."""
import math
import time

import numpy as np
from scipy import special

from hetlda import (ClassStats, ComplexRoot, CvPlan, GldConfig,
                    LabeledDataset, LinearDiscriminant, LnsConfig, OvoModel,
                    Priors, bayes_error, compute_class_stats,
                    d1_population, d2_population, generate_d1, generate_d2,
                    gradient_bayes_error, load_model, local_neighbourhood_search,
                    make_trainer, predict_ovo, predict_ovo_batch,
                    run_benchmark, save_model, second_order_holds,
                    solve_threshold, threshold_roots, train_chld, train_gld,
                    train_lda, train_ovo, train_rhld1, training_error_count)

from helpers import proj_for


def report(num, ok, detail, elapsed=None, budget=None):
    if budget is not None:
        ok = ok and elapsed < budget
        detail += f" [{elapsed:.2f}s of {budget:.0f}s budget]"
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_1_root_selection():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = clean = 0
    while checked < 1000:
        mu2 = float(rng.normal(0.0, 2.0))
        mu1 = mu2 + float(rng.uniform(0.05, 5.0))
        sd1, sd2 = rng.uniform(0.3, 3.0, 2)
        tau = float(rng.uniform(0.2, 5.0))
        var1, var2 = float(sd1) ** 2, float(sd2) ** 2
        try:
            plus, minus = threshold_roots(mu1, mu2, var1, var2, tau)
        except (ComplexRoot, ValueError):
            continue
        checked += 1
        plus_ok = second_order_holds(proj_for(mu1, mu2, var1, var2, plus))
        minus_ok = second_order_holds(proj_for(mu1, mu2, var1, var2, minus))
        if plus_ok and not minus_ok:
            clean += 1
    elapsed = time.perf_counter() - start
    report(1, clean == 1000,
           f"selected root accepted and rejected root refused in "
           f"{clean}/1000 draws", elapsed, 1.0)


def _random_instance(rng):
    d = int(rng.integers(1, 5))

    def spd():
        root = rng.standard_normal((d, d))
        return root @ root.T + d * np.eye(d)

    n1, n2 = int(rng.integers(50, 200)), int(rng.integers(50, 200))
    n = n1 + n2
    s1 = ClassStats(rng.normal(0, 2, d), spd(), n1)
    s2 = ClassStats(rng.normal(0, 2, d), spd(), n2)
    priors = Priors(n1 / n, n2 / n)
    w = rng.normal(0, 1, d)
    alpha = float(rng.uniform(0.25, 0.75))
    mu1, mu2 = float(w @ s1.mean), float(w @ s2.mean)
    w0 = alpha * mu1 + (1 - alpha) * mu2
    disc = LinearDiscriminant(w, w0)
    from hetlda import project_stats
    proj = project_stats(disc, s1, s2)
    if max(abs(proj.z1), abs(proj.z2)) > 4.0:
        return None
    return disc, s1, s2, priors


def _pe_of(disc, s1, s2, priors):
    from hetlda import project_stats
    return bayes_error(project_stats(disc, s1, s2), priors)


def test_criterion_2_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0
    done = 0
    while done < 100:
        instance = _random_instance(rng)
        if instance is None:
            continue
        disc, s1, s2, priors = instance
        done += 1
        grad_w, grad_w0 = gradient_bayes_error(disc, s1, s2, priors)
        analytic = np.concatenate((grad_w, [grad_w0]))
        numeric = np.empty_like(analytic)
        for i in range(disc.w.size):
            bump = np.zeros_like(disc.w)
            bump[i] = h
            hi = _pe_of(LinearDiscriminant(disc.w + bump, disc.w0),
                        s1, s2, priors)
            lo = _pe_of(LinearDiscriminant(disc.w - bump, disc.w0),
                        s1, s2, priors)
            numeric[i] = (hi - lo) / (2 * h)
        hi = _pe_of(LinearDiscriminant(disc.w, disc.w0 + h), s1, s2, priors)
        lo = _pe_of(LinearDiscriminant(disc.w, disc.w0 - h), s1, s2, priors)
        numeric[-1] = (hi - lo) / (2 * h)
        scale = max(float(np.linalg.norm(analytic)), 1e-10)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-4,
           f"max relative gradient error {worst:.2e} over 100 instances "
           f"(tolerance 1e-4)", elapsed, 5.0)


def _oracle_threshold(mu1, mu2, sd1, sd2, pi1, pi2):
    # independent of the closed form: dense grid then golden-section;
    # the first-class tail is evaluated as the complementary upper tail
    # (1 - Q(z) = Q(-z)) so tiny error values keep relative precision,
    # otherwise rounding noise blurs the argmin of flat minima
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def pe(w0):
        miss1 = 0.5 * special.erfc((mu1 - w0) / sd1 * inv_sqrt2)
        miss2 = 0.5 * special.erfc((w0 - mu2) / sd2 * inv_sqrt2)
        return pi1 * miss1 + pi2 * miss2

    top = max(sd1, sd2)
    lo, hi = mu2 - 10 * top, mu1 + 10 * top
    grid = np.linspace(lo, hi, 4001)
    miss1 = 0.5 * special.erfc((mu1 - grid) / sd1 * inv_sqrt2)
    miss2 = 0.5 * special.erfc((grid - mu2) / sd2 * inv_sqrt2)
    values = pi1 * miss1 + pi2 * miss2
    k = int(np.argmin(values))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = pe(c), pe(d)
    while b - a > 1e-8 * (sd1 + sd2):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = pe(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = pe(d)
    return 0.5 * (a + b)


def test_criterion_3_threshold_matches_search_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    done = 0
    worst = 0.0
    while done < 200:
        sd1, sd2 = (float(v) for v in rng.uniform(0.3, 3.0, 2))
        # wide separation keeps the interior minimum below both prior
        # limits, so the searched range contains the global argmin
        mu2 = float(rng.normal(0.0, 2.0))
        mu1 = mu2 + 2.5 * (sd1 + sd2) * float(rng.uniform(1.0, 2.0))
        tau = float(rng.uniform(0.2, 5.0))
        try:
            w0 = solve_threshold(mu1, mu2, sd1 ** 2, sd2 ** 2, tau)
        except ComplexRoot:
            continue
        done += 1
        pi1, pi2 = 1 / (1 + tau), tau / (1 + tau)
        oracle = _oracle_threshold(mu1, mu2, sd1, sd2, pi1, pi2)
        worst = max(worst, abs(w0 - oracle) / (sd1 + sd2))
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-6,
           f"worst threshold deviation {worst:.2e} of (sigma1+sigma2) "
           f"over 200 draws (tolerance 1e-6)", elapsed, 10.0)


def test_criterion_4_stationarity_and_orderings():
    parts = []
    ok = True
    for name, pop in (("D1", d1_population()), ("D2", d2_population())):
        s1, s2, priors = pop
        disc, pe, trace = train_gld(s1, s2, priors)
        grad_w, grad_w0 = gradient_bayes_error(disc, s1, s2, priors)
        norm = math.hypot(float(np.linalg.norm(grad_w)), grad_w0)
        stationary = norm <= 1e-6 or len(trace.records) <= 21
        _, pe_lda, _ = train_lda(s1, s2, priors)
        ordered = pe <= pe_lda and pe <= trace.records[0].p_e
        ok = ok and stationary and ordered
        parts.append(f"{name}: grad {norm:.1e}, pe {pe:.6f} <= "
                     f"lda {pe_lda:.6f} and <= start "
                     f"{trace.records[0].p_e:.6f}")
    report(4, ok, "; ".join(parts))


def test_criterion_5_blend_searches_match_fixed_point():
    start = time.perf_counter()
    parts = []
    ok = True
    for name, pop in (("D1", d1_population()), ("D2", d2_population())):
        s1, s2, priors = pop
        _, pe_gld, _ = train_gld(s1, s2, priors)
        _, pe_chld, _ = train_chld(s1, s2, priors)
        _, pe_rhld1, _ = train_rhld1(s1, s2, priors)
        gap_c = abs(pe_chld - pe_gld)
        gap_r = abs(pe_rhld1 - pe_gld)
        ok = ok and gap_c <= 1e-3 and gap_r <= 1e-3
        parts.append(f"{name}: grid gap {gap_c:.1e}"
                     f"{' (over 1e-3)' if gap_c > 1e-3 else ''}, "
                     f"random gap {gap_r:.1e}"
                     f"{' (over 1e-3)' if gap_r > 1e-3 else ''}")
    elapsed = time.perf_counter() - start
    report(5, ok, "; ".join(parts), elapsed, 30.0)


def test_criterion_6_synthetic_benchmark_reproduction():
    start = time.perf_counter()
    seeds = range(5)
    plan_of = lambda seed: CvPlan(folds=10, trials=5, seed=seed)
    methods = [("lda", make_trainer("lda")), ("gld", make_trainer("gld"))]
    means = {}
    for name, gen in (("D1", generate_d1), ("D2", generate_d2)):
        acc = {"lda": [], "gld": []}
        for seed in seeds:
            data = gen(seed)
            rows = run_benchmark(data, methods, plan_of(seed)).methods
            for row in rows:
                acc[row.method].append(row.accuracy * 100.0)
        means[name] = {m: float(np.mean(v)) for m, v in acc.items()}

    bands = {("D1", "gld"): 78.65, ("D1", "lda"): 76.00,
             ("D2", "gld"): 78.37, ("D2", "lda"): 76.87}
    parts = []
    ok = True
    for (name, method), center in bands.items():
        value = means[name][method]
        inside = abs(value - center) <= 2.0
        ok = ok and inside
        parts.append(f"{name} {method} {value:.2f}pp vs {center:.2f}"
                     f"{'' if inside else ' (outside +/-2.0)'}")
    for name in ("D1", "D2"):
        better = means[name]["gld"] > means[name]["lda"]
        ok = ok and better
        parts.append(f"{name} ordering {'ok' if better else 'violated'}")

    # timing ordering: the fixed-point trainer against the fine grid,
    # alternated call by call so that a slow stretch of the machine hits
    # both, each taking its best of 15
    data = generate_d1(0)
    stats = compute_class_stats(data, 0, 1)
    fits = {"gld": lambda: train_gld(*stats),
            "chld": lambda: train_chld(*stats)}
    timings = dict.fromkeys(fits, math.inf)
    for _ in range(15):
        for label, fit in fits.items():
            t0 = time.perf_counter()
            fit()
            timings[label] = min(timings[label], time.perf_counter() - t0)
    faster = timings["gld"] < timings["chld"]
    ok = ok and faster
    parts.append(f"train time gld {timings['gld'] * 1e3:.1f}ms "
                 f"{'<' if faster else '>='} chld "
                 f"{timings['chld'] * 1e3:.1f}ms")
    elapsed = time.perf_counter() - start
    report(6, ok, "; ".join(parts), elapsed, 300.0)


def test_criterion_7_search_refinement_properties():
    start = time.perf_counter()
    data = LabeledDataset(np.array([[0.0], [1.0], [2.0], [3.0]]),
                          np.array([1, 1, 0, 0]))
    init = LinearDiscriminant(np.array([1.0]), 1.0)
    refined, count = local_neighbourhood_search(init, data)
    toy_ok = (training_error_count(init, data) == 1 and count == 0
              and training_error_count(refined, data) == 0)

    rng = np.random.default_rng(707)
    features = rng.normal(0, 1, (60, 3))
    features[:30] += 1.0
    hard = LabeledDataset(features, np.repeat([0, 1], 30))
    noisy_init = LinearDiscriminant(rng.normal(0, 1, 3), 0.3)
    history = []
    cfg = LnsConfig(max_iters=120, early_stop=40)
    best, best_count = local_neighbourhood_search(
        noisy_init, hard, cfg, on_sweep=lambda i, b: history.append(b))
    monotone = all(a >= b for a, b in zip(history, history[1:]))
    again, again_count = local_neighbourhood_search(best, hard, cfg)
    idempotent = (again_count == best_count and
                  training_error_count(again, hard) == best_count)
    elapsed = time.perf_counter() - start
    report(7, toy_ok and monotone and idempotent,
           f"4-point refinement {'ok' if toy_ok else 'failed'}, "
           f"monotone best {'ok' if monotone else 'violated'}, "
           f"idempotent at optimum {'ok' if idempotent else 'violated'}",
           elapsed, 1.0)


def test_criterion_8_pairwise_reduction_accuracy_and_ties():
    start = time.perf_counter()
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, -5.0]])
    accs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)

        def draw(n_per):
            feats = np.vstack([rng.normal(0, 1, (n_per, 2)) + c
                               for c in centers])
            return LabeledDataset(feats, np.repeat(np.arange(3), n_per))

        train, test = draw(100), draw(100)
        model = train_ovo(train, make_trainer("gld"))
        predicted = predict_ovo_batch(model, test.features)
        accs.append(float(np.mean(predicted == test.labels)))
    acc_ok = min(accs) >= 0.95

    disc_pos = LinearDiscriminant(np.array([1.0]), 0.0)
    disc_neg = LinearDiscriminant(np.array([-1.0]), 0.0)
    weighted = OvoModel(((0, 1, disc_pos, 0.3), (0, 2, disc_neg, 0.2),
                         (1, 2, disc_pos, 0.1)), 3)
    tie_weighted = predict_ovo(weighted, [1.0]) == 1   # most reliable voter
    exact = OvoModel(((0, 1, disc_pos, 0.1), (0, 2, disc_neg, 0.1),
                      (1, 2, disc_pos, 0.1)), 3)
    tie_exact = predict_ovo(exact, [1.0]) == 0         # lowest index
    elapsed = time.perf_counter() - start
    report(8, acc_ok and tie_weighted and tie_exact,
           f"test accuracy min {min(accs):.3f} over 10 seeds (floor 0.95), "
           f"weighted tie {'ok' if tie_weighted else 'wrong'}, "
           f"exact tie {'ok' if tie_exact else 'wrong'}", elapsed, 10.0)


def test_criterion_9_determinism_and_serialization(tmp_path):
    data = generate_d2(3).subset(np.arange(0, 6000, 10))
    plan = CvPlan(folds=5, trials=2, seed=11)
    methods = [("lda", make_trainer("lda")), ("gld", make_trainer("gld"))]
    first = run_benchmark(data, methods, plan)
    second = run_benchmark(data, methods, plan)
    identical = True
    for a, b in zip(first.methods, second.methods):
        identical = identical and (
            a.mean_bayes_error == b.mean_bayes_error
            and a.bayes_error_std == b.bayes_error_std
            and a.accuracy == b.accuracy and a.accuracy_std == b.accuracy_std
            and all(ra.bayes_error == rb.bayes_error
                    and ra.accuracy == rb.accuracy
                    for ra, rb in zip(a.per_fold, b.per_fold)))

    rng = np.random.default_rng(909)
    feats = np.vstack([rng.normal(0, 1, (50, 3)) + c
                       for c in ((0, 0, 0), (6, 0, 0), (0, 6, 0))])
    blobs = LabeledDataset(feats, np.repeat(np.arange(3), 50))
    model = train_ovo(blobs, make_trainer("gld"))
    path = str(tmp_path / "model.json")
    save_model(path, model, "gld")
    loaded, _, _ = load_model(path)
    probe = rng.normal(0, 4, (100, 3))
    preserved = np.array_equal(predict_ovo_batch(model, probe),
                               predict_ovo_batch(loaded, probe))
    report(9, identical and preserved,
           f"repeat benchmark identical: {identical}; saved model predicts "
           f"identically on 100 inputs: {preserved}")
