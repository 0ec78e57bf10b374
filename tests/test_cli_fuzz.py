"""Fuzz `resolvdim.cli.main` in-process over bounded argv and input files.

Whatever the arguments and file bytes, the CLI returns one of the contract's
exit codes (0 pass, 1 verification failure, 2 usage error, 3 budget
exceeded) and raises nothing; when it exits 0 with `--format json` and no
`--out`, stdout is one JSON document.  Instances are kept small (q <= 5,
n <= 3, budgets <= 300) so the examples stay cheap.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from resolvdim.cli import main

JUNK = st.sampled_from(["", "x", "-1", "0", "1.5", "..", "2..", "3..1", "e1+", "e9",
                        "2e1", "-W", "--q", "--bogus", "é"])
Q = st.sampled_from(["2", "3", "4", "5", "6"])
N = st.sampled_from(["1", "2", "3", "0"])
Q_RANGE = st.sampled_from(["2..3", "2..5", "6..6"])
N_RANGE = st.sampled_from(["1..3", "1..2", "0..1"])
SMALL = st.integers(-1, 5).map(str)
VERTEX = st.sampled_from(["e1", "e2", "e3", "e1+e2", "2e1", "e1+e3", "e4"])
FILE_BYTES = st.one_of(
    st.binary(min_size=1, max_size=40),
    st.text(alphabet="0123456789 ,#ex-\n", max_size=40).map(str.encode))


def _options(draw, pairs):
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def invocations(draw):
    """argv with "{file}" for the path of the input file."""
    command = draw(st.sampled_from(
        ["graph", "dim", "twins", "check", "exchange", "intersect", "intersect",
         "verify"]))
    argv = [command]
    if command == "verify":
        argv += draw(st.sampled_from([["--q", draw(Q)], ["--q-range", draw(Q_RANGE)]]))
        argv += draw(st.sampled_from([["--n", draw(N)], ["--n-range", draw(N_RANGE)]]))
        argv += _options(draw, [("--workers", SMALL)])
        if draw(st.booleans()):
            argv.append("--timings")
    elif command == "intersect":
        mode = draw(st.sampled_from(["--powerset", "--correspondence", "--dim-powerset",
                                     "--family", "--realize", "--family", "--realize"]))
        argv += [mode, "{file}" if mode in ("--family", "--realize") else draw(SMALL)]
        if mode == "--realize":
            argv += ["--vertices", draw(SMALL)]
    else:
        argv += ["--q", draw(Q), "--n", draw(N)]
        if command == "check":
            argv += ["-W", draw(st.lists(VERTEX, max_size=4).map(",".join))]
    # always a budget, so no default or environment budget applies
    argv += ["--budget", str(draw(st.integers(-1, 300)))]
    argv += _options(draw, [("--vertex-cap", st.integers(-1, 130).map(str)),
                            ("--seed", SMALL),
                            ("--format", st.sampled_from(["text", "json"]))])
    junk = draw(st.sampled_from(["none", "none", "insert", "replace"]))
    if junk == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    elif junk == "replace":
        argv[draw(st.integers(0, len(argv) - 1))] = draw(JUNK)
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations(), FILE_BYTES, st.booleans())
def test_cli_exit_code_contract(tmp_path, monkeypatch, capsys, argv, data, to_file):
    monkeypatch.chdir(tmp_path)  # `graph` without --out writes to the cwd
    (tmp_path / "input").write_bytes(data)
    argv = [str(tmp_path / "input") if a == "{file}" else a for a in argv]
    if to_file:
        argv += ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    code = main(argv)
    assert code in (0, 1, 2, 3)
    wants_json = any(a == "--format" and b == "json" for a, b in zip(argv, argv[1:]))
    if code == 0 and wants_json and "--out" not in argv:
        json.loads(capsys.readouterr().out)
