"""Command-line harness: decompose | verify | learn | hardness | spectrum.

Exit codes: 0 all checks passed; 1 usage or I/O error; 2 a verified
inequality or certificate failed (the CI signal).  All floating-point output
is printed at 17 significant digits, rationals as "p/q", and report files are
byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import decompose as dc
from . import dtree, fourier, funcs, hardness, learn
from .cube import ProductDistribution, check_enumerable, check_packable, enum_cap, format_subset, mask_of
from .funcs import FamilySpec, InvalidFamilySpec, TOL, ValueOracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

ALPHA_GRID = (1.0, 0.5, 0.25)
PRUNING_ALPHAS = (0.1, 0.25, 0.5)
PRUNING_EPSILONS = (0.5, 0.25, 0.125)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message)


def _fmt(x) -> str:
    # float and bool first: isinstance against Fraction goes through ABCMeta
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _rows_to_csv(rows: list[dict]) -> str:
    header = "instance,lhs,rhs,margin,pass"
    body = [
        ",".join(
            [r["instance"], _fmt(r["lhs"]), _fmt(r["rhs"]), _fmt(r["margin"]), _fmt(r["pass"])]
        )
        for r in sorted(rows, key=lambda r: r["instance"])
    ]
    return header + "\n" + "\n".join(body) + "\n"


def _write(out_dir: str | None, name: str, chunks: str | Iterable[str]) -> None:
    """Writes a report file from its text or its text's chunks, one write per
    chunk, so no text longer than a chunk is made or encoded at once."""
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / name, "w") as fh:
        for chunk in [chunks] if isinstance(chunks, str) else chunks:
            fh.write(chunk)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- target resolution --------------------------------------------------------


def _load_family_file(path: str) -> FamilySpec:
    return FamilySpec.from_json(Path(path).read_text())


def _resolve_target(args) -> tuple[str, ValueOracle]:
    if getattr(args, "file", None):
        spec = _load_family_file(args.file)
        return f"{spec.family}-n{spec.n}-file", funcs.instantiate(spec)
    family = getattr(args, "family", None)
    if family is None:
        raise _UsageError("pass --family or --file")
    n = getattr(args, "n", None)
    if n is None:
        raise _UsageError("--family needs --n")
    if family == "cut" and getattr(args, "edges", None):
        edges = []
        for part in args.edges.split(","):
            a, _, b = part.strip().partition("-")
            edges.append([int(a), int(b)])
        spec = FamilySpec("cut", n, {"edges": edges})
        return f"cut-n{n}-inline", funcs.instantiate(spec)
    seed = getattr(args, "seed", None) or 0
    spec = funcs.generate_random(family, n, seed)
    return f"{family}-n{n}-s{seed}", funcs.instantiate(spec)


# --- verification suites --------------------------------------------------------


def _corpus_chunks(ns, seeds):
    """The corpus tables (`funcs.corpus_tables`) in stacks of at most
    dtree.STACK_POINTS points: yields (n, keys, ids, stack), where keys[k]
    sorts row k of the stack into corpus order, (family, position of n,
    seed)."""
    seeds = tuple(seeds)
    for at, (n, ids, stack) in enumerate(funcs.corpus_tables(tuple(ns), seeds)):
        size = max(1, dtree.STACK_POINTS >> n)  # instances per stack
        for k in range(0, len(ids), size):
            # the j-th instance of n is family j // len(seeds), seed j % len(seeds)
            keys = [(j // len(seeds), at, j % len(seeds)) for j in range(k, min(k + size, len(ids)))]
            yield n, keys, ids[k:k + size], stack[k:k + size]


def _corpus_rows(ns, seeds, measure) -> list[dict]:
    """One row per corpus instance, in corpus order: measure(n, stack) gives
    the arrays (lhs, rhs, margin, pass) of a stack's tables, one entry per
    row."""
    rows = {}
    for n, keys, ids, stack in _corpus_chunks(ns, seeds):
        columns = [a.tolist() for a in measure(n, stack)]
        for key, inst, lhs, rhs, margin, ok in zip(keys, ids, *columns):
            rows[key] = {"instance": inst, "lhs": lhs, "rhs": rhs, "margin": margin, "pass": ok}
    return [rows[key] for key in sorted(rows)]


def suite_variance(ns, seeds) -> list[dict]:
    """Var f <= 2 L E[f] per instance, L the Lipschitz constant."""

    def measure(n, t):
        mean = np.mean(t, axis=1)
        var = np.mean((t - mean[:, None]) ** 2, axis=1)
        bound = 2.0 * funcs.stacked_lipschitz(t, n) * mean
        return var, bound, bound - var, var <= bound + TOL

    return _corpus_rows(ns, seeds, measure)


def suite_parseval(ns, seeds) -> list[dict]:
    """sum_S coeff(S)^2 = E[f^2] per instance."""

    def measure(n, t):
        c = fourier.stacked_coefficients(t)
        lhs = np.cumsum(c * c, axis=1)[:, -1]  # left to right, ascending mask
        rhs = np.mean(t**2, axis=1)
        gap = np.abs(lhs - rhs)
        return lhs, rhs, gap, gap <= TOL

    return _corpus_rows(ns, seeds, measure)


def suite_pairwise(ns, seeds) -> tuple[list[dict], float]:
    """|coeff({i,j})| >= 1/2 sum of coeff(S)^2 over S containing i and j,
    at each instance's worst pair, and the smallest ratio of the two over
    every pair with mass (the best constant)."""
    best = math.inf

    def measure(n, t):
        nonlocal best
        pair, total = fourier.stacked_pairwise_weights(fourier.stacked_coefficients(t), n)
        k = np.argmin(pair - 0.5 * total, axis=1)[:, None]  # each instance's worst pair
        lhs = np.take_along_axis(pair, k, axis=1)[:, 0]
        rhs = 0.5 * np.take_along_axis(total, k, axis=1)[:, 0]
        mass = total > 1e-12
        if mass.any():
            best = min(best, float(np.min(pair[mass] / total[mass])))
        return lhs, rhs, lhs - rhs, lhs >= rhs - TOL

    rows = _corpus_rows(ns, seeds, measure)
    return rows, best


def _rank_row(inst: str, alpha: float, report, err: float) -> dict:
    """Rank bound ceil(2/alpha) (the report's `rank_bound`), exact l1
    reconstruction and leaf certificates."""
    bound = report.rank_bound()
    return {
        "instance": f"{inst}-a{alpha:g}",
        "lhs": report.rank,
        "rhs": bound,
        "margin": bound - report.rank,
        "pass": report.rank_bound_ok() and err <= TOL and report.certificates_ok(),
    }


def suite_rank(ns, seeds) -> list[dict]:
    """Rank rows of the corpus, instance by instance in corpus order, alpha
    by alpha.  Each stack of `_corpus_chunks` is built at every alpha as one
    batch (`dc.build_lipschitz_grid`) of oracles over its rows, so it is
    checked and certified once and only one batch's trees are held."""
    rows: dict[tuple, dict] = {}
    for n, keys, ids, stack in _corpus_chunks(ns, seeds):
        fs = [ValueOracle.from_table(t) for t in stack]
        grid = dc.build_lipschitz_grid(fs, ALPHA_GRID)
        for a, (alpha, reports) in enumerate(zip(ALPHA_GRID, grid)):
            errs = dtree.exact_distances(fs, [r.tree for r in reports], metric="l1")
            for key, inst, report, err in zip(keys, ids, reports, errs):
                rows[(*key, a)] = _rank_row(inst, alpha, report, err)
    return [rows[key] for key in sorted(rows)]


def _pruning_distributions(n: int) -> dict[float, list[ProductDistribution]]:
    """Per pruning alpha: the alpha-biased product and a random alpha-bounded one."""
    dists = {}
    for alpha in PRUNING_ALPHAS:
        rng = np.random.default_rng((0xD157, 0, n))
        mu = tuple(float(v) for v in rng.uniform(alpha, 1.0 - alpha, size=n))
        dists[alpha] = [ProductDistribution((alpha,) * n), ProductDistribution(mu)]
        for d in dists[alpha]:
            d.require_bounded(alpha)
    return dists


def _pruning_rows_for_tree(tag: str, tree, dists) -> list[dict]:
    """Pruning-lemma rows of one tree under ``dists``, a list of
    alpha-bounded distributions per alpha."""
    rows = []
    r = dtree.rank(tree)
    depth = dtree.tree_depth(tree)
    profile = dtree.leaf_profile(tree)
    checked_against_truncate = False
    for alpha, alpha_dists in dists.items():
        for di, dist in enumerate(alpha_dists):
            dis_by_d = dtree.profile_disagreements(profile, dist)
            if not checked_against_truncate and depth > 0:
                # the profile shortcut must agree with the literal truncation
                d0 = depth // 2
                direct = dtree.exact_distance(
                    tree, dtree.truncate(tree, d0), dist, "disagreement"
                )
                gap = abs(direct - float(dis_by_d[d0]))
                if not gap < 1e-12:
                    rows.append(
                        {
                            "instance": f"{tag}-truncate-d{d0}",
                            "lhs": float(dis_by_d[d0]),
                            "rhs": direct,
                            "margin": -gap,
                            "pass": False,
                        }
                    )
                checked_against_truncate = True
            worst = None
            for d in range(depth + 1):
                bound = dtree.pruning_bound(r, alpha, d)
                if worst is None or dis_by_d[d] - bound > worst[0] - worst[1]:
                    worst = (float(dis_by_d[d]), bound)
            rows.append(
                {
                    "instance": f"{tag}-a{alpha:g}-d{di}",
                    "lhs": worst[0],
                    "rhs": worst[1],
                    "margin": worst[1] - worst[0],
                    "pass": worst[0] <= worst[1] + TOL,
                }
            )
            for eps in PRUNING_EPSILONS:
                d = min(dtree.pruning_depth_for(r, alpha, eps), depth)
                dis = float(dis_by_d[d])
                rows.append(
                    {
                        "instance": f"{tag}-a{alpha:g}-d{di}-eps{eps:g}",
                        "lhs": dis,
                        "rhs": eps,
                        "margin": eps - dis,
                        "pass": dis <= eps + TOL,
                    }
                )
    return rows


def suite_pruning(n: int, seeds: int) -> list[dict]:
    rows = []
    for s in range(seeds):
        tree = dtree.random_tree(min(n, 14), seed=s)
        dists = _pruning_distributions(tree.n)
        rows.extend(_pruning_rows_for_tree(f"rand-n{tree.n}-s{s}", tree, dists))
    # read from the corpus the other suites hold, when it has these instances
    ((_, ids, stack),) = funcs.corpus_tables((min(n, 10),), (0, 1, 2))
    reports = dc.build_lipschitz_trees([ValueOracle.from_table(t) for t in stack], 0.5, certify=False)
    for inst, report in zip(ids, reports):
        dists = _pruning_distributions(report.tree.n)
        rows.extend(_pruning_rows_for_tree(f"decomp-{inst}", report.tree, dists))
    return rows


def suite_correlation(smax: int) -> list[dict]:
    rows = []
    for s in range(2, smax + 1):
        bf = hardness.correlation_brute_force(s)
        cf = hardness.correlation_closed_form(s)
        rows.append(
            {
                "instance": f"plateau-s{s:02d}",
                "lhs": cf,
                "rhs": bf,
                "margin": 0 if cf == bf else float(cf - bf),
                "pass": cf == bf,
            }
        )
        hb = hardness.correlation_brute_force(s, "monotone")
        rows.append(
            {
                "instance": f"monotone-s{s:02d}",
                "lhs": hb,
                "rhs": bf / 2,
                "margin": 0 if hb == bf / 2 else float(hb - bf / 2),
                "pass": hb == bf / 2,
            }
        )
    for n in range(1, 21):
        worst_ok = True
        for r in range(n + 1):
            if hardness.alternating_partial_sum(n, r) != hardness.alternating_partial_sum_closed(n, r):
                worst_ok = False
        rows.append(
            {
                "instance": f"partialsum-n{n:02d}",
                "lhs": 0,
                "rhs": 0,
                "margin": 0,
                "pass": worst_ok,
            }
        )
    return rows


def _check_carrier(k: int) -> None:
    """Reject a k whose embedding carrier exceeds the enumeration cap."""
    check_enumerable(hardness.embedding_spec_for(k).n, f"the embedding carrier of k={k}")


def _random_boolean(k: int, rng) -> ValueOracle:
    table = rng.integers(0, 2, size=1 << k).astype(float)
    return ValueOracle.from_table(table)


def _certify_embedding(f: ValueOracle):
    """Embed f; the carrier h must be monotone, submodular and decode to f exactly."""
    h, spec = hardness.embed_build(f)
    dec = hardness.embed_decode(h, spec)
    cert = {
        "monotone": bool(funcs.is_monotone(h)),
        "submodular": bool(funcs.is_submodular(h)),
        "roundtrip_exact": bool(np.array_equal(dec.table(), f.table())),
    }
    return h, spec, cert


def _transfer_error(f: ValueOracle, h: ValueOracle, spec, eps: float, rng) -> float:
    """l1 error of decoding h plus seeded noise of l1 mass transfer_budget(eps)."""
    noise = rng.uniform(-1.0, 1.0, size=1 << spec.n)
    noise *= spec.transfer_budget(eps) / np.mean(np.abs(noise))
    dec = hardness.embed_decode(ValueOracle.from_table(h.table() + noise), spec)
    return float(np.mean(np.abs(dec.table() - f.table())))


def suite_embedding(kmax: int) -> list[dict]:
    rows = []
    for k in range(1, kmax + 1):
        rng = np.random.default_rng((0xE4B, k))
        f = _random_boolean(k, rng)
        h, spec, cert = _certify_embedding(f)
        rows.append(
            {
                "instance": f"embed-k{k}",
                "lhs": 0.0,
                "rhs": 0.0,
                "margin": 0.0,
                "pass": all(cert.values()),
            }
        )
        for eps in (0.25, 0.5):
            err = _transfer_error(f, h, spec, eps, rng)
            rows.append(
                {
                    "instance": f"embed-k{k}-eps{eps:g}",
                    "lhs": err,
                    "rhs": eps,
                    "margin": eps - err,
                    "pass": err <= eps + TOL,
                }
            )
    return rows


SUITES = ("variance", "pruning", "rank", "pairwise", "correlation", "embedding", "parseval", "all")


def cmd_verify(args) -> int:
    suite = args.suite
    if suite in ("embedding", "all"):
        _check_carrier(args.k)
    ns = tuple(range(4, min(args.n, 10) + 1))
    seeds = range(args.seeds)
    outputs: dict[str, list[dict]] = {}
    if suite in ("variance", "all"):
        outputs["variance"] = suite_variance(ns, seeds)
    if suite in ("parseval", "all"):
        outputs["parseval"] = suite_parseval(ns, seeds)
    if suite in ("pairwise", "all"):
        rows, best = suite_pairwise(ns, seeds)
        outputs["pairwise"] = rows
        print(f"pairwise: empirical best constant {format(best, '.17g')}")
    if suite in ("rank", "all"):
        outputs["rank"] = suite_rank(ns, seeds)
    if suite in ("pruning", "all"):
        outputs["pruning"] = suite_pruning(args.n, args.seeds)
    if suite in ("correlation", "all"):
        outputs["correlation"] = suite_correlation(args.smax)
    if suite in ("embedding", "all"):
        outputs["embedding"] = suite_embedding(args.k)

    all_ok = True
    for name, rows in outputs.items():
        csv = _rows_to_csv(rows)
        _write(args.out, f"{name}.csv", csv)
        ok = all(r["pass"] for r in rows)
        all_ok = all_ok and ok
        print(f"{name}: {sum(r['pass'] for r in rows)}/{len(rows)} checks pass")
        if not ok:
            for r in rows:
                if not r["pass"]:
                    print(f"  FAIL {r['instance']}: lhs={_fmt(r['lhs'])} rhs={_fmt(r['rhs'])}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# --- decompose ------------------------------------------------------------------


def cmd_decompose(args) -> int:
    inst, f = _resolve_target(args)
    if f.n > enum_cap():
        print(f"error: n={f.n} exceeds the enumeration cap {enum_cap()}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = dc.build_lipschitz_tree(f, args.alpha)
    except dc.NotSubmodular as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    err = dtree.exact_distance(f, report.tree, metric="l1")
    if args.out is not None:
        tree = dc.constantize_leaves(report)
        _write(args.out, "report.json", report.to_json_chunks(tree, instance=inst, max_l1_error=err))
        _write(args.out, "tree.json", dtree.to_json_chunks(tree))
    row = _rank_row(inst, args.alpha, report, err)
    _write(args.out, "rank.csv", _rows_to_csv([row]))
    print(
        f"{inst}: rank {report.rank} (bound {row['rhs']}), exact l1 error {format(err, '.17g')}, "
        f"certificates {'ok' if report.certificates_ok() else 'FAILED'}"
    )
    if not row["pass"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# --- learn ----------------------------------------------------------------------


def cmd_learn(args) -> int:
    inst, f = _resolve_target(args)
    exact_possible = f.n <= enum_cap()
    if args.competitor and not exact_possible:
        print(f"error: --competitor needs n <= {enum_cap()}, got n={f.n}", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "pac":
        if args.exact and not exact_possible:
            print(
                f"error: exact mode needs n <= {enum_cap()}, got n={f.n}", file=sys.stderr
            )
            return EXIT_USAGE
        hyp = learn.pac_learn(
            f,
            args.epsilon,
            gamma=args.gamma,
            degree=args.degree,
            m=args.samples,
            seed=args.seed,
            exact=args.exact,
        )
    else:  # agnostic-l2
        if args.L is None:
            raise _UsageError("agnostic-l2 needs --L")
        hyp = learn.agnostic_l2_learn(
            f,
            args.epsilon,
            args.L,
            degree=args.degree,
            seed=args.seed,
            unit_range=True,
            bucket_samples=args.bucket_samples,
            coeff_samples=args.coeff_samples,
        )

    run = {
        "instance": inst,
        "mode": args.mode,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "J": [i + 1 for i in hyp.info.get("J", [])],
        "gamma": hyp.info.get("gamma"),
        "degree": hyp.degree,
        "samples": hyp.samples_used,
        "queries": hyp.queries_used,
        "variables_used": format_subset(hyp.variables_used),
    }
    if exact_possible:
        run["exact_l2_error"] = dtree.exact_distance(f, hyp.spectrum, metric="l2")
    if args.competitor:
        g = funcs.instantiate(_load_family_file(args.competitor))
        delta = dtree.exact_distance(f, g, metric="l2")
        run["competitor_l2"] = delta
        run["competitor_spectral_l1"] = fourier.spectral_l1(fourier.transform(g))
        run["contract_ok"] = run["exact_l2_error"] <= delta + args.epsilon + TOL
    _write(args.out, "hypothesis.csv", hyp.spectrum.to_csv())
    _write(args.out, "run.json", _dump_json(run))
    err_note = (
        f", exact l2 error {format(run['exact_l2_error'], '.17g')}" if exact_possible else ""
    )
    print(f"{inst}: |support| {len(hyp.spectrum.coeffs)}{err_note}")
    if run.get("contract_ok") is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# --- hardness --------------------------------------------------------------------


def cmd_hardness(args) -> int:
    if args.demo == "correlation":
        lines = ["s,closed_form,brute_force,exact_match"]
        ok = True
        for s in range(2, args.smax + 1):
            cf = hardness.correlation_closed_form(s)
            bf = hardness.correlation_brute_force(s)
            match = cf == bf
            ok = ok and match
            lines.append(f"{s},{_fmt(cf)},{_fmt(bf)},{_fmt(match)}")
        csv = "\n".join(lines) + "\n"
        _write(args.out, "correlation.csv", csv)
        print(csv, end="")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.demo == "embed":
        if args.file:
            f = funcs.instantiate(_load_family_file(args.file))
            _check_carrier(f.n)
        else:
            _check_carrier(args.k)
            f = _random_boolean(args.k, np.random.default_rng((0xE4B, args.k)))
        _, espec, cert = _certify_embedding(f)
        report = {"k": espec.k, "t": espec.t, "n": espec.n, "alpha_emb": espec.alpha_emb, **cert}
        _write(args.out, "embed_report.json", _dump_json(report))
        print(_dump_json(report), end="")
        return EXIT_OK if all(cert.values()) else EXIT_CHECK_FAILED

    # lpn
    n, k = args.n, args.k
    check_packable(n, "lpn")
    if not 1 <= k <= n:
        raise _UsageError(f"lpn needs 1 <= --k <= --n, got --k {k} --n {n}")
    successes = 0
    learner = hardness.regression_learner(k)
    for trial in range(args.trials):
        target = mask_of(
            int(i)
            for i in np.random.default_rng((0x7A9, trial)).choice(n, size=k, replace=False)
        )
        src = hardness.NoisySource(n, target, args.eta, seed=trial)
        try:
            found = hardness.lpn_reduce(src, k, learner, args.gamma, m=args.samples)
        except hardness.NoCandidateFound:
            found = -1
        successes += found == target
    report = {
        "n": n,
        "sparsity": k,
        "eta": args.eta,
        "trials": args.trials,
        "samples": args.samples,
        "successes": successes,
        "success_rate": successes / args.trials,
    }
    _write(args.out, "lpn.json", _dump_json(report))
    print(_dump_json(report), end="")
    return EXIT_OK if report["success_rate"] >= 2 / 3 else EXIT_CHECK_FAILED


def cmd_spectrum(args) -> int:
    inst, f = _resolve_target(args)
    if f.n > enum_cap():
        print(f"error: n={f.n} exceeds the enumeration cap {enum_cap()}", file=sys.stderr)
        return EXIT_USAGE
    chunks = fourier.spectrum_csv(f)  # the spectrum is computed before any file is made
    report = None
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        report = open(Path(args.out) / "spectrum.csv", "wb")
    with report or contextlib.nullcontext():
        _stream(chunks, report)
    return EXIT_OK


def _stream(chunks, report) -> None:
    """Write each chunk of bytes to the report file, when there is one, and
    then to stdout (its text layer when it has no binary buffer).

    A reader that closes stdout early stops only stdout: the report gets
    every chunk, then the BrokenPipeError is raised.
    """
    sys.stdout.flush()  # what was printed goes first
    binary = getattr(sys.stdout, "buffer", None)
    out = binary.write if binary is not None else lambda chunk: sys.stdout.write(chunk.decode("ascii"))
    try:
        for chunk in chunks:
            if report is not None:
                report.write(chunk)
            out(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        if report is not None:
            report.writelines(chunks)
        raise


# --- parser -----------------------------------------------------------------------


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _at_least(lo: int):
    """argparse type: an integer >= lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _add_target_options(p) -> None:
    p.add_argument("--family", choices=funcs.FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--file", help="FamilySpec JSON file")
    p.add_argument("--edges", help='inline cut edges, e.g. "1-2,2-3"')
    p.add_argument("--out", help="directory for report files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="submodtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="build and certify a Lipschitz-leaf tree")
    _add_target_options(p)
    p.add_argument("--alpha", type=_positive_float, required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", type=_at_least(4), default=8, help="the corpus starts at n = 4")
    p.add_argument("--seeds", type=_at_least(1), default=5)
    p.add_argument("--smax", type=_at_least(2), default=16)
    p.add_argument("--k", type=_at_least(1), default=4)
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("learn", help="run a learner against a target")
    p.add_argument("mode", choices=("pac", "agnostic-l2"))
    _add_target_options(p)
    p.add_argument("--epsilon", type=_positive_float, required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--degree", type=_at_least(0))
    p.add_argument("--samples", type=_at_least(1), default=1 << 16)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--L", type=_positive_float)
    p.add_argument("--competitor", help="FamilySpec JSON of an explicit competitor")
    p.add_argument(
        "--bucket-samples", type=_at_least(1), help="per-bucket weight samples (agnostic-l2)"
    )
    p.add_argument(
        "--coeff-samples", type=_at_least(1), help="per-coefficient samples (agnostic-l2)"
    )
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("hardness", help="lower-bound demos")
    p.add_argument("demo", choices=("correlation", "embed", "lpn"))
    p.add_argument("--smax", type=_at_least(2), default=12)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--trials", type=_at_least(1), default=30)
    p.add_argument("--samples", type=_at_least(1), default=1 << 16)
    p.add_argument("--gamma", type=_positive_float, default=0.5)
    p.add_argument("--file", dest="file", help="Boolean truth_table JSON (embed demo)")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_hardness)

    p = sub.add_parser("spectrum", help="exact spectrum of a target, as CSV")
    _add_target_options(p)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, InvalidFamilySpec, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


# What exists once the CLI is loaded lives until exit; frozen, the collections
# at interpreter exit skip it instead of walking the whole import-time heap.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
