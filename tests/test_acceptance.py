"""Acceptance suite: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The generated corpus is 5 families
x n in {4..10} x 20 seeds throughout, checked with exact enumeration.
"""

import math
import time

import numpy as np

from conftest import as_dict, leaves_of, spectrum_of
from submodtree import decompose as dc
from submodtree import cli, dtree, fourier, funcs, hardness, learn
from submodtree.cube import ProductDistribution, mask_of
from submodtree.dtree import exact_distance, tree_table
from submodtree.funcs import FamilySpec, ValueOracle, instantiate, iter_corpus

CORPUS_NS = tuple(range(4, 11))
CORPUS_SEEDS = tuple(range(20))


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def corpus():
    return iter_corpus(ns=CORPUS_NS, seeds=CORPUS_SEEDS)


def _require_rows(name: str, rows: list[dict]) -> None:
    """Fail on any failing suite row, naming its instance."""
    failed = [r["instance"] for r in rows if not r["pass"]]
    if failed:
        _report(name, False, f"{len(failed)} rows fail, first {failed[0]}")


def test_criterion_1_exact_decomposition():
    t0 = time.time()
    rows = cli.suite_rank(CORPUS_NS, CORPUS_SEEDS)
    _require_rows("criterion-1", rows)
    elapsed = time.time() - t0
    _report(
        "criterion-1",
        elapsed <= 300,
        f"{len(rows)} decompositions exact, within rank bound, certified in {elapsed:.1f}s",
    )


def test_criterion_2_end_to_end_l2():
    worst_margin = math.inf
    for inst, f in corpus():
        for eps in (0.25, 0.5, 0.8):
            rep = dc.build_lipschitz_tree(f, eps * eps / 2.0, certify=False)
            tree = dc.constantize_leaves(rep)
            err = exact_distance(f, tree, metric="l2")
            worst_margin = min(worst_margin, eps - err)
            if err > eps + 1e-9 or rep.rank > math.ceil(4.0 / (eps * eps)):
                _report("criterion-2", False, f"{inst} eps={eps} err={err}")
    _report("criterion-2", True, f"l2 within eps everywhere (min margin {worst_margin:.3f})")


def test_criterion_3_pruning():
    trees = []
    for s in range(100):
        trees.append((f"rand-{s}", dtree.random_tree(14, seed=s)))
    for inst, f in iter_corpus(ns=(8, 10), seeds=(0,)):
        rep = dc.build_lipschitz_tree(f, 0.5, certify=False)
        trees.append((f"decomp-{inst}", rep.tree))

    for idx, (tag, tree) in enumerate(trees):
        dists = {}
        for alpha in (0.1, 0.25, 0.5):
            rng = np.random.default_rng((0xACC3, idx, int(alpha * 100)))
            mus = [(alpha,) * tree.n, tuple(rng.uniform(alpha, 1 - alpha, tree.n))]
            dists[alpha] = [ProductDistribution(mu) for mu in mus]
        _require_rows("criterion-3", cli._pruning_rows_for_tree(tag, tree, dists))
    # the rows check the single-traversal profile against literal truncation
    # under their first distribution; check it under the uniform default too
    tag, tree = trees[0]
    d0 = dtree.tree_depth(tree) // 2
    direct = exact_distance(tree, dtree.truncate(tree, d0), metric="disagreement")
    profile = dtree.truncation_disagreements(tree)[d0]
    _report(
        "criterion-3",
        abs(direct - profile) < 1e-12,
        f"{len(trees)} trees, bound and closed-form depth hold",
    )


def test_criterion_4_leaf_variance():
    checked = 0
    for inst, f in corpus():
        for alpha in (1.0, 0.5, 0.25):
            rep = dc.build_lipschitz_tree(f, alpha, certify=False)
            for lf in leaves_of(rep.tree):
                if lf.oracle.n == 0:
                    continue
                t = lf.oracle.table()
                var = float(np.mean((t - np.mean(t)) ** 2))
                bound = 2.0 * alpha * float(np.mean(t))
                if var > bound + 1e-9:
                    _report("criterion-4", False, f"{inst} alpha={alpha}")
                checked += 1
    _report("criterion-4", True, f"variance bound on {checked} leaves")


def test_criterion_5_pairwise_bound():
    rows, best_constant = cli.suite_pairwise(CORPUS_NS, CORPUS_SEEDS)
    _require_rows("criterion-5", rows)
    edge = instantiate(FamilySpec("cut", 2, {"edges": [[1, 2]]}))
    pair, total, _ = fourier.pairwise_coefficient_gap(edge)
    cut_constant = pair / total
    _report(
        "criterion-5",
        abs(cut_constant - 2.0) < 1e-12,
        f"holds everywhere; empirical best constant {best_constant:.6f} "
        f"(single-edge cut achieves {cut_constant:g})",
    )


def test_criterion_6_spectral_l1_and_degree():
    for inst, f in corpus():
        rep = dc.build_lipschitz_tree(f, 0.5, certify=False)
        tree = dc.constantize_leaves(rep)
        sp = dtree.to_spectrum(tree)
        if fourier.spectral_l1(sp) > dtree.tree_size(tree) + 1e-9:
            _report("criterion-6", False, f"{inst} spectral l1")
        if sp.degree() > dtree.tree_depth(tree):
            _report("criterion-6", False, f"{inst} degree")
    _report("criterion-6", True, "spectral l1 <= size and degree <= depth on the corpus")


def test_criterion_7_correlations():
    from fractions import Fraction

    _require_rows("criterion-7", cli.suite_correlation(16))
    expected = {2: Fraction(-1, 2), 3: Fraction(-1, 4), 4: Fraction(1, 8)}
    for s, val in expected.items():
        if hardness.correlation_closed_form(s) != val:
            _report("criterion-7", False, f"anchor s={s}")
    _report("criterion-7", True, "closed forms exact for s <= 16, partial sums for n <= 20")


def test_criterion_8_embedding():
    for k in range(1, 7):
        rng = np.random.default_rng((0x8E, k))
        for trial in range(3):
            f = ValueOracle.from_table(rng.integers(0, 2, size=1 << k).astype(float))
            if not all(cli._certify_embedding(f)[2].values()):
                _report("criterion-8", False, f"certificates k={k}")
        for trial in range(50):
            f = ValueOracle.from_table(rng.integers(0, 2, size=1 << k).astype(float))
            if not cli._certify_embedding(f)[2]["roundtrip_exact"]:
                _report("criterion-8", False, f"roundtrip k={k} trial={trial}")
        for eps in (0.25, 0.5):
            for trial in range(5):
                f = ValueOracle.from_table(rng.integers(0, 2, size=1 << k).astype(float))
                h, spec = hardness.embed_build(f)
                if cli._transfer_error(f, h, spec, eps, rng) > eps + 1e-9:
                    _report("criterion-8", False, f"transfer k={k} eps={eps}")
    _report("criterion-8", True, "monotone+submodular, exact roundtrip, transfer bound (k <= 6)")


def test_criterion_9_km_contract():
    theta, d, runs = 0.4, 4, 100
    ok = 0
    for seed in range(runs):
        rng = np.random.default_rng((0xACC9, seed))
        masks = []
        while len(masks) < 3:
            m = int(rng.integers(1, 256))
            if m.bit_count() <= d and m not in masks:
                masks.append(m)
        signs = rng.choice([-1.0, 1.0], size=3)
        planted = {m: s * v for m, v, s in zip(masks, (0.5, 0.3, 0.15), signs)}
        f = ValueOracle.from_table(spectrum_of(8, planted).table())
        hyp = learn.km_search(f, theta, degree=d, seed=seed)
        got = as_dict(hyp.spectrum)
        clauses = (
            all(s.bit_count() <= d for s in got),
            masks[0] in got,
            all(abs(planted.get(s, 0.0)) > theta / 2 for s in got),
            all(abs(planted.get(s, 0.0) - est) <= theta / 4 for s, est in got.items()),
        )
        ok += all(clauses)
    _report("criterion-9", ok >= 95, f"all four clauses held in {ok}/100 runs")


def _junta_targets():
    sets = [[1], [1, 2], [3], [2, 3]] + [[] for _ in range(8)]
    yield "coverage-4j", instantiate(
        FamilySpec("coverage", 12, {"universe_size": 3, "sets": sets})
    )
    yield "cut-pair", instantiate(FamilySpec("cut", 12, {"edges": [[2, 5]]}))
    profile = [0.0, 0.7, 1.0] + [1.0] * 10
    yield "profile-2j", instantiate(
        FamilySpec(
            "matroid_rank_partition",
            12,
            {"blocks": [[1, 4, 7, 10], [2, 3, 5, 6, 8, 9, 11, 12]], "caps": [2, 8]},
        )
    )


def test_criterion_10_pac_learner():
    for tag, f in _junta_targets():
        hyp = learn.pac_learn(f, 0.25, gamma=0.01, degree=4, exact=True)
        err = exact_distance(f, hyp.spectrum, metric="l2")
        if err > 1e-6:
            _report("criterion-10", False, f"exact junta {tag} err={err}")

    hits = 0
    for seed in range(30):
        base = instantiate(funcs.generate_random("coverage", 12, seed=200 + seed))
        rep = dc.build_lipschitz_tree(base, 0.125, check=False, certify=False)
        target = ValueOracle.from_table(tree_table(dc.constantize_leaves(rep)))
        hyp = learn.pac_learn(target, 0.5, gamma=0.05, degree=4, m=1 << 18, seed=seed)
        err = exact_distance(target, hyp.spectrum, metric="l2")
        hits += err <= 0.5
    _report(
        "criterion-10",
        hits >= 20,
        f"exact junta recovery <= 1e-6; sampled mode hit eps=0.5 in {hits}/30 seeds",
    )


def test_criterion_11_lpn():
    learner = hardness.regression_learner(2)
    for eta, needed in ((0.0, 30), (0.1, 20)):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng((0xACC11, seed))
            target = mask_of(int(i) for i in rng.choice(16, size=2, replace=False))
            src = hardness.NoisySource(16, target, eta, seed=seed)
            try:
                hits += hardness.lpn_reduce(src, 2, learner, gamma=0.5, m=1 << 16) == target
            except hardness.NoCandidateFound:
                pass
        if hits < needed:
            _report("criterion-11", False, f"eta={eta}: {hits}/30")
        if eta == 0.0 and hits != 30:
            _report("criterion-11", False, f"noiseless {hits}/30")
    _report("criterion-11", True, "noiseless 30/30; eta=0.1 recovery >= 2/3 of seeds")


def test_criterion_12_determinism(tmp_path):
    commands = [
        ["verify", "variance", "--n", "5", "--seeds", "2"],
        ["verify", "pruning", "--n", "8", "--seeds", "3"],
        ["decompose", "--family", "cut", "--n", "6", "--seed", "1", "--alpha", "0.5"],
        ["learn", "pac", "--family", "coverage", "--n", "8", "--seed", "3",
         "--epsilon", "0.5", "--gamma", "0.1", "--degree", "3", "--samples", "8192"],
        ["hardness", "lpn", "--n", "10", "--k", "1", "--eta", "0.1", "--trials", "3",
         "--samples", "4096"],
    ]
    for idx, argv in enumerate(commands):
        a, b = tmp_path / f"a{idx}", tmp_path / f"b{idx}"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        if not names or names != sorted(p.name for p in b.iterdir()):
            _report("criterion-12", False, f"file sets empty or differ for {argv}")
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                _report("criterion-12", False, f"{name} differs for {argv}")
    _report("criterion-12", True, f"{len(commands)} command reruns byte-identical")
