"""Family JSON fuzzed through `spectrum --file`.

Every family's fields are drawn near their valid shapes, then mixed with
integers around -1, 0, 255, 256, 2^63 and 10^309, floats (NaN and infinities
included), booleans, strings, nested lists and missing keys.  Whatever the
file holds, the CLI must exit 0 or 1 without an exception escaping, and an
exit 1 must print exactly one line on stderr.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from submodtree import cli
from submodtree.funcs import FAMILIES

EDGES = [v + d for v in (-1, 0, 255, 256, 2**63, 10**309) for d in (-1, 0, 1)]

ints = st.sampled_from(EDGES) | st.integers(min_value=-2, max_value=8)
scalars = st.one_of(
    ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
junk = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


def near(valid):
    """Mostly the valid shape, sometimes an edge value or junk in its place."""
    return st.one_of(valid, valid, valid, ints, junk)


def listed(element, size):
    """A list of ``size`` elements (size may be off by one), or junk."""
    return near(st.integers(size - 1, size + 1).flatmap(
        lambda k: st.lists(element, min_size=max(k, 0), max_size=max(k, 0))
    ))


def fields(family, n):
    unit = near(st.floats(0, 1) | st.sampled_from([0, 1]))
    if family == "coverage":
        element = near(st.integers(1, 9))
        return {"universe_size": near(st.integers(1, 9)), "sets": listed(listed(element, 3), n)}
    if family == "cut":
        vertex = near(st.integers(1, n))
        return {"edges": listed(listed(vertex, 2), 3)}
    if family == "budget_additive":
        return {"weights": listed(near(st.floats(0, 2)), n), "budget": near(st.floats(0, 3))}
    if family == "matroid_rank_partition":
        blocks = st.just([list(range(1, n + 1))]) | st.permutations(range(1, n + 1)).flatmap(
            lambda p: st.integers(1, n).map(lambda k: [list(p[:k]), list(p[k:])] if k < n else [list(p)])
        )
        blocks = blocks.filter(lambda b: all(b))
        return {
            "blocks": near(blocks),
            "caps": near(blocks.flatmap(lambda b: st.lists(ints, min_size=len(b), max_size=len(b)))),
        }
    if family == "concave_profile":
        return {"profile": listed(unit, n + 1)}
    return {"values": listed(unit, 1 << n)}


@st.composite
def family_json(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 6))
    obj = {"family": draw(near(st.just(family))), "n": draw(near(st.just(n)))}
    for key, value in fields(family, n).items():
        obj[key] = draw(value)
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2)):
        obj.pop(key, None)  # missing keys
    return obj


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(obj=family_json())
def test_family_json_exits_0_or_1_with_one_line(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["spectrum", "--file", path])
    assert code in (0, 1), (code, obj)
    if code == 1:
        assert err.getvalue().count("\n") == 1, (err.getvalue(), obj)
