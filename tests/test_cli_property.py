"""Property test of the CLI's whole input space: every argv ends in a documented exit code.

Each example starts from a valid small command of one subcommand, replaces one to three
flags with edge values (or drops them), and runs it through ``cli.main``. Every single
replacement on the first valid command is an explicit example, so each edge value of each
flag is run whatever hypothesis draws. The run must
return a documented code, with any nonzero one ending stderr in an ``error category=``
line, or stop in argparse's usage error (exit 2). Any other exception fails the test.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privfp import bench, privacy
from privfp.cli import main

EDGES = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", str(2 ** 63))
K_EDGES = tuple(v for v in EDGES if v != str(2 ** 63))  # a run allocates its (K, p) store at once
LISTS = ("", " ", ",", "1,,2", "1 x", "nan 2", "0.5 inf", "-1", "1e300 1e-300", str(2 ** 63))
DOCUMENTED_CODES = (0, 2, 3, 4, 5, 6)

# Per subcommand: flag -> (valid values, edge values); "" leaves the flag out. An edge
# replaces a valid value, so that most commands reach the library rather than argparse.
# 1e154 is about the largest magnitude whose square is finite.
_EXPERIMENT = {
    "--setting": (bench.SETTINGS, ("bogus",)),
    "--algorithm": (bench.ALGORITHMS, ("bogus",)),
    "--n": (("20", "40"), EDGES),
    "--p": (("2", "4"), EDGES),
    "--K": (("1", "5"), K_EDGES),
    "--support-size": (("1", "2"), EDGES),
    "--noise-std": (("0.1",), EDGES),
    "--lam": (("0.1", "1"), EDGES),
    "--gamma-scale": (("1",), EDGES),
    "--step": (("0.1",), EDGES),
    "--clip-threshold": (("0.1", "1e154"), EDGES),
    "--kappa": (("", "0"), EDGES),
    "--kappa-fraction": (("0.1",), EDGES),
    "--sample-fraction": (("0.1", "1"), EDGES),
    "--epsilons": (("1", "0.1 10"), LISTS + EDGES),
    "--delta": (("1e-6",), EDGES),
    "--sigma": (("", "0", "1"), EDGES),
    "--seeds": (("0", "3"), LISTS + EDGES),
    "--data-seed": (("0",), EDGES),
    "--test-fraction": (("0.1", "0.5"), EDGES),
    "--alphas": (("", "2 8"), LISTS + EDGES),
}
_CURVE = {
    "--setting": (privacy.SETTINGS, ("bogus",)),
    "--K": (("1", "100"), K_EDGES),
    "--L": (("1", "1e154"), EDGES),
    "--gamma": (("0.1", "1"), EDGES),
    "--n": (("10", "100"), EDGES),
    "--m": (("1", "10"), EDGES),
    "--K-i": (("",), EDGES),
    "--alphas": (("", "2 8"), LISTS + EDGES),
}
FLAGS = {
    "solve": _EXPERIMENT,
    "bench": _EXPERIMENT,
    "account": dict(_CURVE, **{"--sigma": (("1", "40"), EDGES), "--delta": (("", "1e-6"), EDGES)}),
    "calibrate": dict(_CURVE, **{"--epsilon": (("1", "0.1"), EDGES),
                                 "--delta": (("1e-6", ""), EDGES), "--alpha": (("", "2"), EDGES)}),
}
SWITCHES = {"solve": ("--trace-out", "--observations-out", "--out"),
            "bench": ("--compare", "--tune"), "account": ("--out",), "calibrate": ()}


def _argv(command, values):
    return [command] + [word for flag, value in values.items() if value for word in (flag, value)]


def single_edges(command):
    """The first valid command with one flag replaced by each of its edges, or dropped."""
    flags = FLAGS[command]
    base = {flag: valid[0] for flag, (valid, _) in flags.items()}
    for flag, (_, edges) in flags.items():
        for value in edges + ("",):
            yield _argv(command, dict(base, **{flag: value}))


@st.composite
def argvs(draw, command):
    flags = FLAGS[command]
    values = {flag: draw(st.sampled_from(valid)) for flag, (valid, _) in flags.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3,
                              unique=True)):
        values[flag] = draw(st.sampled_from(flags[flag][1] + ("",)))
    argv = _argv(command, values)
    for switch in SWITCHES[command]:
        if draw(st.booleans()):
            argv += [switch, "x.csv"] if switch.endswith("out") else [switch]
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in runs given 1e300
@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_argv_ends_in_a_documented_exit(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRIVFP_OUTDIR", raising=False)

    def check(argv):
        if command != "calibrate":
            argv = argv + ["--outdir", str(tmp_path / "out")]
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and capsys.readouterr().err.startswith("usage: "), argv
            return
        err = capsys.readouterr().err
        assert code in DOCUMENTED_CODES, argv
        if code:
            assert err.splitlines()[-1].startswith("error category="), argv

    check = given(argv=argvs(command))(check)
    for argv in single_edges(command):
        check = example(argv=argv)(check)
    settings(derandomize=True, max_examples=150, database=None)(check)()
