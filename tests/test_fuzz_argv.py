"""Command lines fuzzed through the CLI.

Each example draws a subcommand and its flags, and gives each flag a valid
value or one around the bounds the CLI validates: NaN, infinities, zero,
negatives, the subnormals 5e-324 and 1e-320, 2^63, and text that is not a
number.  Whatever the command line, the CLI must exit 0, 1 or 2 without an
exception escaping, and an exit 1 must print exactly one line on stderr.

Dimensions stay at n = 4..6 when valid, and every count that sizes work
(seeds, samples, trials, smax) is small when valid; the KM sample counts
are always passed, since their defaults grow as theta^-4.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from submodtree import cli
from submodtree.funcs import FAMILIES

NUMBERS = ["nan", "inf", "-inf", "0", "-0.5", "-1", "5e-324", "1e-320", str(2**63), "x", ""]
# integers the CLI rejects, or accepts without starting large work
BAD_INTS = ["0", "-1", "x", "1.5", "nan", ""]


def value(valid, bad=NUMBERS):
    """Mostly a valid value, sometimes one around the bounds."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(bad))


UNIT = ["0.25", "0.5", "1", "1e-100", "3"]
SMALL_N = value(["4", "5", "6"], BAD_INTS + [str(2**63), "70"])
TARGET = {
    "--family": value(list(FAMILIES), ["x"]),
    "--n": SMALL_N,
}
SEED = {"--seed": value(["0", "1", str(2**63)], BAD_INTS)}
EDGES = {"--edges": value(["1-2", "1-2,2-3"], ["1-x", "0-1", "1-99", "x"])}

# per command: the flags it always gets (those that start work, and the
# counts whose defaults are large), and the flags it gets now and then
COMMANDS = {
    ("decompose",): ({**TARGET, "--alpha": value(UNIT)}, {**SEED, **EDGES}),
    ("spectrum",): (TARGET, {**SEED, **EDGES}),
    ("learn", "pac"): (
        {**TARGET, "--epsilon": value(UNIT), "--samples": value(["16", "64"], BAD_INTS)},
        {
            **SEED,
            "--gamma": value(["0.1", "0.25"]),
            "--degree": value(["0", "2", str(2**63)], BAD_INTS),
            "--exact": st.just(None),
        },
    ),
    ("learn", "agnostic-l2"): (
        {
            **TARGET,
            "--epsilon": value(UNIT),
            "--L": value(["0.5", "1", "1e300"]),
            "--bucket-samples": value(["32", "64"], BAD_INTS),
            "--coeff-samples": value(["32", "64"], BAD_INTS),
        },
        {**SEED, "--degree": value(["0", "2", str(2**63)], BAD_INTS)},
    ),
    ("hardness", "correlation"): ({"--smax": value(["2", "4"], BAD_INTS)}, {}),
    ("hardness", "embed"): ({}, {"--k": value(["1", "2", "3"], BAD_INTS + [str(2**63), "70"])}),
    ("hardness", "lpn"): (
        {
            "--n": SMALL_N,
            "--trials": value(["1", "2"], BAD_INTS),
            "--samples": value(["32", "64"], BAD_INTS),
        },
        {
            "--k": value(["1", "2"], BAD_INTS + [str(2**63)]),
            "--eta": value(["0", "0.1", "0.4"]),
            "--gamma": value(["0.3", "0.5"]),
        },
    ),
    ("verify",): (
        {
            "--n": value(["4", "5"], BAD_INTS + ["3", str(2**63)]),
            "--seeds": value(["1", "2"], BAD_INTS),
            "--smax": value(["2", "3"], BAD_INTS),
        },
        {"--k": value(["1", "2"], BAD_INTS + [str(2**63), "70"])},
    ),
}


@st.composite
def command_line(draw):
    head = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(head)
    if head == ("verify",):
        argv.append(draw(st.sampled_from(cli.SUITES)))
    required, optional = COMMANDS[head]
    flags = [*required, *(f for f in optional if draw(st.booleans()))]
    for flag in flags:
        text = draw({**required, **optional}[flag])
        argv += [flag] if text is None else [flag, text]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_line())
def test_command_lines_exit_0_1_or_2_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (code, argv)
    if code == 1:
        assert err.getvalue().count("\n") == 1, (err.getvalue(), argv)
