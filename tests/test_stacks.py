"""The corpus suites read the corpus as stacks of same-n tables.

`funcs.corpus_tables` generates and tabulates each instance once per
process; `verify variance`, `parseval`, `pairwise` and `rank` compute their
rows from the stacks with `fourier.fwht`, `stacked_coefficients`,
`stacked_pairwise_weights` and `funcs.stacked_lipschitz`.  Each stacked
kernel must give every row the bits its table gets alone, and each suite the
rows of the per-instance loops it replaced, kept here as references.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from submodtree import cli, dtree, fourier, funcs
from submodtree.funcs import TOL, ValueOracle, iter_corpus

# seeds not used while the stacked suites were written, and an order of n
# that is not ascending
SEEDS = range(930, 950)
NS = (10, 4, 7, 5, 9, 6, 8)
_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]


def bits(rows: list[dict]) -> list[tuple]:
    """Each row's values, floats as their bits, so -0.0 and NaN compare exactly."""
    return [
        tuple(np.float64(v).view(np.uint64).item() if isinstance(v, float) else v
              for v in row.values())
        for row in rows
    ]


def stack(n: int, k: int, seed: int) -> np.ndarray:
    """k random tables of 2^n values, with NaN, infinities and signed zeros
    in some rows."""
    rng = np.random.default_rng((seed, n, k))
    t = rng.normal(size=(k, 1 << n))
    for row in range(0, k, 2):
        special = rng.random(1 << n) < 0.3
        t[row, special] = rng.choice(_SPECIAL, size=int(special.sum()))
    return t


# --- references: the per-instance loops the suites ran before the stacks ----------


def ref_variance(ns, seeds) -> list[dict]:
    rows = []
    for inst, f in iter_corpus(ns=ns, seeds=seeds):
        t = f.table()
        var = float(np.mean((t - np.mean(t)) ** 2))
        bound = 2.0 * funcs.lipschitz_constant(f) * float(np.mean(t))
        rows.append({"instance": inst, "lhs": var, "rhs": bound, "margin": bound - var,
                     "pass": var <= bound + TOL})
    return rows


def ref_parseval(ns, seeds) -> list[dict]:
    rows = []
    for inst, f in iter_corpus(ns=ns, seeds=seeds):
        c = fourier.coefficients(f)
        lhs = float(np.cumsum(c * c)[-1])
        rhs = float(np.mean(f.table() ** 2))
        rows.append({"instance": inst, "lhs": lhs, "rhs": rhs, "margin": abs(lhs - rhs),
                     "pass": abs(lhs - rhs) <= TOL})
    return rows


def ref_pairwise(ns, seeds) -> tuple[list[dict], float]:
    rows, best = [], math.inf
    for inst, f in iter_corpus(ns=ns, seeds=seeds):
        pair, total = fourier.pairwise_weights(f)
        k = int(np.argmin(pair - 0.5 * total))
        lhs, rhs = float(pair[k]), 0.5 * float(total[k])
        rows.append({"instance": inst, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs,
                     "pass": lhs >= rhs - TOL})
        mass = total > 1e-12
        if mass.any():
            best = min(best, float(np.min(pair[mass] / total[mass])))
    return rows, best


def ref_rank(ns, seeds) -> list[dict]:
    from submodtree import decompose as dc

    rows = []
    for inst, f in iter_corpus(ns=ns, seeds=seeds):
        for alpha in cli.ALPHA_GRID:
            report = dc.build_lipschitz_tree(f, alpha)
            err = dtree.exact_distance(f, report.tree, metric="l1")
            rows.append(cli._rank_row(inst, alpha, report, err))
    return rows


def ref_pairwise_weights(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair by pair, from one coefficient array: |coeff({i,j})| and the
    left-to-right sum of coeff(S)^2 over the masks S holding i and j."""
    masks = np.arange(1 << n)
    pair, total = [], []
    for i, j in itertools.combinations(range(n), 2):
        both = (masks >> i) & (masks >> j) & 1 == 1
        pair.append(abs(c[(1 << i) | (1 << j)]))
        total.append(np.cumsum(c[both] ** 2)[-1])
    return np.array(pair, dtype=float), np.array(total, dtype=float)


# --- the kernels ------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 17])
@pytest.mark.parametrize("n", range(11))
def test_fwht_of_a_stack_equals_each_row_alone(n, k):
    t = stack(n, k, 1)
    with np.errstate(invalid="ignore"):
        got = fourier.fwht(t)
        want = np.array([fourier.fwht(row) for row in t])
    assert got.shape == t.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("k", [1, 3, 17])
@pytest.mark.parametrize("n", range(11))
def test_stacked_coefficients_equal_each_table_alone(n, k):
    t = stack(n, k, 2)
    with np.errstate(invalid="ignore"):
        got = fourier.stacked_coefficients(t)
        want = np.array([fourier.coefficients(ValueOracle.from_table(row)) for row in t])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 12, 13])
def test_stacked_pairwise_weights_equal_each_table_alone(n):
    # n = 12 and 13 are above the gather budget: their pairs are read
    # through strided views
    rng = np.random.default_rng(n)
    c = fourier.stacked_coefficients(rng.random((3, 1 << n)))
    pair, total = fourier.stacked_pairwise_weights(c, n)
    for row, p, s in zip(c, pair, total):
        want_p, want_s = ref_pairwise_weights(row, n)
        assert p.view(np.uint64).tolist() == want_p.view(np.uint64).tolist()
        assert s.view(np.uint64).tolist() == want_s.view(np.uint64).tolist()


@pytest.mark.parametrize("n", [0, 1, 3, 10, 13, 14])
def test_stacked_lipschitz_equals_each_table_alone(n):
    # a stack's derivatives along each coordinate are one row over all its
    # tables, so each table's maximum is read from a reshape of that row
    rng = np.random.default_rng(n)
    t = rng.normal(size=(4, 1 << n))
    got = funcs.stacked_lipschitz(t, n)
    want = [funcs.lipschitz_constant(ValueOracle.from_table(row)) for row in t]
    assert got.tolist() == want


# --- the suites -----------------------------------------------------------------


def test_variance_rows_equal_the_per_instance_loop():
    assert bits(cli.suite_variance(NS, SEEDS)) == bits(ref_variance(NS, SEEDS))


def test_parseval_rows_equal_the_per_instance_loop():
    assert bits(cli.suite_parseval(NS, SEEDS)) == bits(ref_parseval(NS, SEEDS))


def test_pairwise_rows_and_best_constant_equal_the_per_instance_loop():
    rows, best = cli.suite_pairwise(NS, SEEDS)
    want_rows, want_best = ref_pairwise(NS, SEEDS)
    assert bits(rows) == bits(want_rows)
    assert np.float64(best).view(np.uint64) == np.float64(want_best).view(np.uint64)


def test_rank_rows_equal_single_builds_from_generated_oracles():
    ns, seeds = (7, 5), range(930, 934)
    assert bits(cli.suite_rank(ns, seeds)) == bits(ref_rank(ns, seeds))


def test_the_rank_suite_reads_pair_maxima_once_per_stack(monkeypatch):
    # the input check reads each stack's pair maxima for every alpha, and
    # its verdict lets every leaf skip the pair pass
    ns, seeds = (4, 7, 10), range(930, 934)
    stacks = len(list(cli._corpus_chunks(ns, seeds)))
    calls = []
    pair_maxima = funcs._pair_maxima

    def counting(t, n):
        calls.append(n)
        return pair_maxima(t, n)

    monkeypatch.setattr(funcs, "_pair_maxima", counting)
    cli.suite_rank(ns, seeds)
    assert len(calls) == stacks


def test_cached_stacks_are_read_only():
    for _, ids, t in funcs.corpus_tables((5, 4), (0, 1)):
        assert len(ids) == len(t) == 2 * len(funcs.GENERATED_FAMILIES)
        with pytest.raises(ValueError):
            t[0, 0] = 1.0
        with pytest.raises(ValueError):
            t[1:][0, 0] = 1.0


def test_a_corpus_within_the_kept_one_is_read_from_its_rows():
    funcs._KEPT.clear()
    kept = funcs.corpus_tables((4, 6, 5), (0, 1, 2, 3))
    within = funcs.corpus_tables((5, 4), (2, 0))
    assert funcs.corpus_tables((4, 6, 5), (0, 1, 2, 3)) is kept  # still kept
    funcs._KEPT.clear()
    made = funcs.corpus_tables((5, 4), (2, 0))
    assert [(n, ids) for n, ids, _ in within] == [(n, ids) for n, ids, _ in made]
    for (_, _, t), (_, _, want) in zip(within, made):
        assert t.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        with pytest.raises(ValueError):
            t[0, 0] = 1.0


def test_other_seeds_give_other_rows():
    a, b = cli.suite_variance((6,), range(2)), cli.suite_variance((6,), range(2, 4))
    assert [r["instance"] for r in a] != [r["instance"] for r in b]
    assert [r["lhs"] for r in a] != [r["lhs"] for r in b]
    # and the first corpus again, after the cache moved on, gives its rows again
    assert bits(cli.suite_variance((6,), range(2))) == bits(a)


def test_verify_all_generates_each_corpus_instance_once(tmp_path, monkeypatch):
    calls = Counter()
    generate_random = funcs.generate_random

    def counting(family, n, seed):
        calls[family, n, seed] += 1
        return generate_random(family, n, seed)

    monkeypatch.setattr(funcs, "generate_random", counting)
    funcs._KEPT.clear()
    assert cli.main(["verify", "all", "--n", "10", "--seeds", "20", "--out", str(tmp_path)]) == 0
    corpus = {(family, n, seed) for family in funcs.GENERATED_FAMILIES
              for n in range(4, 11) for seed in range(20)}
    # the pruning suite's three seeds at n = 10 are read from the same corpus
    assert set(calls) == corpus
    assert all(count == 1 for count in calls.values())
