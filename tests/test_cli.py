import hashlib
import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
from resolvdim import cli, field, graph, resolving, twins, vectorspace, verify
from resolvdim.cli import main
from resolvdim.graph import ComponentGraph
from test_mutants import SWAPS

CLI = [sys.executable, "-m", "resolvdim"]
DATA = Path(__file__).parent / "data"


def run_cli(args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd, env=child_env())


def test_graph_exports(tmp_path):
    result = run_cli(["graph", "--q", "2", "--n", "2"], cwd=tmp_path)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "order=3 size=2"
    dot = (tmp_path / "gamma_q2_n2.gv").read_text()
    assert dot.startswith("graph gv {")
    assert dot.count("--") == 2
    edges = (tmp_path / "gamma_q2_n2.edges").read_text()
    assert edges == "1 3\n2 3\n"


def test_graph_edge_count(tmp_path):
    result = run_cli(["graph", "--q", "3", "--n", "2", "--out", str(tmp_path / "g")],
                     cwd=tmp_path)
    assert result.returncode == 0
    lines = (tmp_path / "g.edges").read_text().strip().split("\n")
    assert len(lines) == 24


def test_graph_over_cap_is_usage_error(tmp_path):
    result = run_cli(["graph", "--q", "2", "--n", "20"], cwd=tmp_path)
    assert result.returncode == 2
    assert "vertex cap" in result.stderr


@pytest.mark.parametrize("argv, shown", [
    (["dim", "--q", "2", "--n", "20000"], "2^20000-1"),
    (["dim", "--q", "27", "--n", "3000000"], "27^3000000-1"),
    (["dim", "--q", "3", "--n", "64", "--vertex-cap", "5"], "3^64-1"),
    # below 2^64 the order is printed in decimal, as it always was
    (["dim", "--q", "2", "--n", "64", "--vertex-cap", "5"], "18446744073709551615"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_huge_order_is_refused_from_n(argv, shown, capsys):
    # q^n is never formed once 2^n - 1 is past the cap: no 4300-digit
    # ValueError from printing it, and no seconds spent computing it
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    cap = argv[argv.index("--vertex-cap") + 1] if "--vertex-cap" in argv else "65536"
    assert capsys.readouterr() == ("", f"error: q^n-1 = {shown} exceeds the vertex cap {cap}\n")


def test_twins_past_the_matrix_cap_is_refused(capsys):
    # (27,3) is under the vertex cap, and the twin partition would fit in
    # O(N); it is refused at the matrix cap with the dense views
    assert main(["twins", "--q", "27", "--n", "3"]) == 2
    assert capsys.readouterr() == ("", "error: dense adjacency needs N <= 4096, got 19682\n")


def test_verify_skips_a_huge_order(capsys):
    start = time.perf_counter()
    assert main(["verify", "--q", "2", "--n", "20000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.splitlines()[1] == \
        "q=2 n=20000 cell=SKIPPED (q^n-1 = 2^20000-1 exceeds the vertex cap 65536)"


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # exit 1 would read as a failed verification; nothing is allocated
    # here, the MemoryError is raised where the allocation would be
    def no_list(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_resolve_ns", no_list)
    assert main(["verify", "--q", "2", "--n-range", "1..100000000000"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")

    real = np.arange

    def no_skeletons(*args, **kwargs):
        if args[-1] > 1 << 32:
            raise MemoryError("Unable to allocate 8.00 TiB for an array\n"
                              "with shape (1099511627775,) and data type int64")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", no_skeletons)
    assert main(["dim", "--q", "2", "--n", "40", "--vertex-cap", "2000000000000"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 8.00 TiB "
                                   "for an array with shape (1099511627775,) and data "
                                   "type int64\n")


def test_dim_text_and_json(tmp_path):
    result = run_cli(["dim", "--q", "3", "--n", "2"])
    assert result.returncode == 0
    assert result.stdout == ("q=3 n=2 dim_formula=5 dim_search=5 "
                             "witness=e1,e2,e1+e2,2e1+e2,e1+2e2 match=true\n")
    result = run_cli(["dim", "--q", "2", "--n", "3", "--format", "json"])
    payload = json.loads(result.stdout)
    assert payload["formula"] == payload["search"] == 3
    assert payload["witness"] == ["e1", "e2", "e1+e2"]
    assert payload["match"] is True


def test_dim_fails_on_a_witness_that_does_not_resolve(monkeypatch, capsys):
    # formula and search still agree at 4, but the moved witness
    # {e1, e2, e3, e1+e4} does not resolve (2,4): the kernel's check of the
    # witness must fail the dim subcommand and verify's dim section
    real = resolving.find_min_resolving_for_matrix

    def moved(dist, twin_classes, budget=resolving.DEFAULT_BUDGET):
        k, cols = real(dist, twin_classes, budget)
        return k, cols[:-1] + (cols[-1] + 1,)

    monkeypatch.setattr(resolving, "find_min_resolving_for_matrix", moved)
    assert main(["dim", "--q", "2", "--n", "4"]) == 1
    assert capsys.readouterr().out == ("q=2 n=4 dim_formula=4 dim_search=4 "
                                       "witness=e1,e2,e3,e1+e4 match=false\n")
    assert main(["verify", "--q", "2", "--n", "4", "--format", "json"]) == 1
    cell = json.loads(capsys.readouterr().out)["records"][0]
    assert cell["dim"]["match"] is False and cell["pass"] is False
    assert main(["verify", "--q", "2", "--n", "4"]) == 1
    assert " dim=FAIL " in capsys.readouterr().out


def test_dim_budget_exceeded_exit_code():
    # the pruned walk decides (3,3) in 19 node evaluations
    result = run_cli(["dim", "--q", "3", "--n", "3", "--budget", "10"])
    assert result.returncode == 3
    assert "budget exceeded" in result.stderr


def test_budget_env_var_default(monkeypatch, capsys):
    # --budget is the only budget source: the former RESOLVDIM_BUDGET
    # variable changes nothing, whatever its value
    result = subprocess.run(
        CLI + ["dim", "--q", "3", "--n", "3"],
        capture_output=True, text=True,
        env=child_env({"PATH": "/usr/bin:/bin", "RESOLVDIM_BUDGET": "10"}))
    assert result.returncode == 0
    assert result.stdout.endswith(" match=true\n")
    monkeypatch.setenv("RESOLVDIM_BUDGET", "-5")
    assert main(["dim", "--q", "2", "--n", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("q,n", [(4, 3), (5, 3), (3, 4), (2, 10)])
def test_dim_decided_within_vertex_count_budget(q, n, capsys):
    # the pruned walk needs k nodes at q >= 3 and 2^(n-1) at q = 2
    budget = q ** n - 1
    assert main(["dim", "--q", str(q), "--n", str(n), "--budget", str(budget)]) == 0
    assert capsys.readouterr().out.endswith(" match=true\n")


@pytest.mark.parametrize("q,n", [(2, 12), (4, 4), (5, 4), (3, 5), (7, 3)])
def test_dim_default_budget_decides_larger_cells(q, n, capsys):
    assert main(["dim", "--q", str(q), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(" match=true\n")
    if q == 2:
        assert f" witness={','.join(f'e{i}' for i in range(1, n + 1))} " in out


def test_twins_lines():
    result = run_cli(["twins", "--q", "3", "--n", "2"])
    assert result.stdout == (
        "mask=01 size=2 members=[e1,2e1]\n"
        "mask=10 size=2 members=[e2,2e2]\n"
        "mask=11 size=4 members=[e1+e2,2e1+e2,e1+2e2,2e1+2e2]\n")


def test_twins_json(capsys):
    assert main(["twins", "--q", "3", "--n", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"mask": "01", "size": 2, "members": ["e1", "2e1"]},
        {"mask": "10", "size": 2, "members": ["e2", "2e2"]},
        {"mask": "11", "size": 4, "members": ["e1+e2", "2e1+e2", "e1+2e2", "2e1+2e2"]}]


def test_graph_json(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    assert main(["graph", "--q", "2", "--n", "2", "--out", prefix, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "order": 3, "size": 2, "wrote": [prefix + ".gv", prefix + ".edges"]}
    assert (tmp_path / "g.edges").read_text() == "1 3\n2 3\n"


# sha256 of the .gv and .edges files `graph` writes, captured from the
# line-per-edge exports that preceded the row-wise ones
GRAPH_EXPORT_SHA256 = {
    (2, 11): ("6166d545762872c1c4b9af3d19a950e7ccb5fc49644ef45b1f8bd90f9c1f8058",
              "c6bb91858f96cd2fbcc10e07d0975ff080a73b1b89c8a1876c330737ec07270a"),
    (4, 5): ("f9d3dd41d54d04020b0306f69b1c4c7e9eb9f48f569cd46d3f6305ca641911a9",
             "ee9a1ff37bb1366c08bdac1ccef62aa7fa7dc4d68f57f2cb5b2755cbf444a99c"),
    (3, 4): ("0d5e4fef8529ec8c3027e4185a506e875747e1d02550c314d2c61de8eba81cb1",
             "2e87731982b94ebe15049b4e063a69da7d0aa44c6c982d278ba8ccfd65041960"),
}


@pytest.mark.parametrize("q, n", sorted(GRAPH_EXPORT_SHA256))
def test_graph_export_bytes(tmp_path, q, n):
    prefix = str(tmp_path / "g")
    assert main(["graph", "--q", str(q), "--n", str(n), "--out", prefix]) == 0
    digests = tuple(hashlib.sha256(Path(prefix + ext).read_bytes()).hexdigest()
                    for ext in (".gv", ".edges"))
    assert digests == GRAPH_EXPORT_SHA256[(q, n)]


def test_intersect_format_json_is_usage_error(capsys):
    assert main(["intersect", "--powerset", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: intersect has text output only")
    assert captured.out == ""


def test_exchange_format_text_is_usage_error(capsys):
    assert main(["exchange", "--q", "2", "--n", "2", "--format", "text"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: exchange has JSON output only; drop --format text\n"
    assert captured.out == ""
    assert main(["exchange", "--q", "2", "--n", "2"]) == 0
    plain = capsys.readouterr().out
    assert main(["exchange", "--q", "2", "--n", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["holds"] is True


# flags that no mode of the command reads are not declared on it
@pytest.mark.parametrize("argv", [
    *([command, "--q", "2", "--n", "2", "--seed", "1"]
      for command in ("graph", "dim", "twins", "exchange")),
    ["check", "--q", "2", "--n", "2", "-W", "e1", "--seed", "1"],
    ["intersect", "--powerset", "2", "--seed", "1"],
    ["intersect", "--correspondence", "3", "--vertex-cap", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["graph", "--q", "2", "--n", "2"], ["dim", "--q", "2", "--n", "2"],
    ["twins", "--q", "2", "--n", "2"], ["check", "--q", "2", "--n", "2", "-W", "e1"],
    ["exchange", "--q", "2", "--n", "2"]], ids=lambda argv: argv[0])
def test_vertex_cap_is_checked_on_every_graph_command(argv, capsys):
    assert main([*argv, "--vertex-cap", "0"]) == 2
    assert capsys.readouterr().err == "error: --vertex-cap must be >= 1, got 0\n"


def test_check_resolving_minimal():
    result = run_cli(["check", "--q", "2", "--n", "3", "-W", "e1,e2,e3"])
    assert result.returncode == 0
    assert "resolving=true" in result.stdout
    assert "minimal=true" in result.stdout
    assert "contains_v_basis=true" in result.stdout


def test_check_dependent_basis():
    result = run_cli(["check", "--q", "2", "--n", "3", "-W", "e1,e1+e3,e3"])
    assert result.returncode == 0
    assert "contains_v_basis=false" in result.stdout


@pytest.mark.parametrize("q, members, spans", [
    (4, "e1,2e1", "false"),
    (9, "e1,5e1", "false"),
    (4, "e1,2e1+e2,3e2", "true"),
])
def test_check_basis_verdict_at_prime_power_orders(q, members, spans, capsys):
    # scalar multiples of e1 span a line; 2e1+e2 and 3e2 span GF(4)^2
    assert main(["check", "--q", str(q), "--n", "2", "-W", members]) == 1
    assert f"contains_v_basis={spans}\n" in capsys.readouterr().out


def test_check_not_resolving_reports_collision():
    result = run_cli(["check", "--q", "2", "--n", "3", "-W", "e1"])
    assert result.returncode == 1
    assert "resolving=false" in result.stdout
    assert "collision=(e2,e3)" in result.stdout


def test_check_duplicate_members_is_usage_error():
    result = run_cli(["check", "--q", "2", "--n", "3", "-W", "e1,e1,e2"])
    assert result.returncode == 2
    assert "candidate set contains duplicate vertices" in result.stderr


def test_check_parse_error_position():
    result = run_cli(["check", "--q", "2", "--n", "3", "-W", "e1,2e9"])
    assert result.returncode == 2
    assert "position" in result.stderr


def test_exchange_json_payload():
    result = run_cli(["exchange", "--q", "2", "--n", "3"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["holds"] is False
    assert payload["method"] == "definition-check"
    assert sorted(set(payload["sizes"])) == [3, 4]
    assert payload["witness"]["kind"] == "exchange-violation"
    holds = json.loads(run_cli(["exchange", "--q", "3", "--n", "2"]).stdout)
    assert holds["holds"] is True and holds["witness"] is None


@pytest.mark.parametrize("command", [["exchange", "--q", "3", "--n", "3"],
                                     ["verify", "--q", "3", "--n", "3"]])
def test_allow_theorem_flag_is_gone(command, capsys):
    # an over-budget exchange is skipped or exits 3; it is never cited
    assert main([*command, "--budget", "1000", "--allow-theorem"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --allow-theorem" in captured.err
    assert captured.out == ""


def test_intersect_powerset_and_family(tmp_path):
    fam_path = tmp_path / "fam.txt"
    result = run_cli(["intersect", "--powerset", "2", "--out", str(fam_path)])
    assert result.returncode == 0
    assert fam_path.read_text() == "1\n2\n1,2\n"
    result = run_cli(["intersect", "--family", str(fam_path)])
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "members=3 order=3 size=2"
    assert lines[1:] == ["1 3", "2 3"]


def test_intersect_correspondence():
    assert run_cli(["intersect", "--correspondence", "3"]).returncode == 0
    result = run_cli(["intersect", "--correspondence", "4"])
    assert result.stdout == "correspondence=true\n"


def test_intersect_dim_powerset():
    result = run_cli(["intersect", "--dim-powerset", "3"])
    assert result.stdout == "dim=3\n"


@pytest.mark.parametrize("argv", [
    ["twins", "--q", "3", "--n", "3"],
    ["verify", "--q", "3", "--n", "2", "--format", "json"],
    ["intersect", "--dim-powerset", "4"],
    ["intersect", "--family", "fam.txt"],
], ids=lambda argv: " ".join(argv[:2]))
def test_output_does_not_depend_on_the_hash_seed(argv, tmp_path):
    # the twin partition keys its rows by the salted built-in hash, but a
    # key only buckets rows that are then grouped by their exact bytes
    (tmp_path / "fam.txt").write_text("1\n2\n1,2\n3\n2,3\n1,3\n")
    outs = [subprocess.run(CLI + argv, capture_output=True, cwd=tmp_path,
                           env=dict(child_env(), PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    assert [run.returncode for run in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout != b""


@pytest.mark.parametrize("n,members", [(13, 8191), (16, 65535)])
def test_intersect_dim_powerset_over_the_member_cap_is_usage_error(n, members):
    result = run_cli(["intersect", "--dim-powerset", str(n)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (f"error: intersection graph needs at most 4096 "
                             f"members, got {members}\n")


def test_intersect_realize_roundtrip(tmp_path):
    run_cli(["graph", "--q", "2", "--n", "2", "--out", str(tmp_path / "g")])
    fam_path = tmp_path / "fam.txt"
    result = run_cli(["intersect", "--realize", str(tmp_path / "g.edges"),
                      "--vertices", "3", "--out", str(fam_path)])
    assert result.returncode == 0
    result = run_cli(["intersect", "--family", str(fam_path)])
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "members=3 order=3 size=2"
    assert lines[1:] == ["1 3", "2 3"]


def test_intersect_realize_self_loop_is_usage_error(tmp_path, capsys):
    edges = tmp_path / "loop.edges"
    edges.write_text("1 2\n1 1\n")
    assert main(["intersect", "--realize", str(edges), "--vertices", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: self-loop at vertex 1\n"
    assert captured.out == ""


# sha256 of the stdout of `intersect --family` and `--realize` on the seeded
# inputs below, captured from the edge-set plain graphs that preceded the
# adjacency-matrix ones
INTERSECT_OUTPUT_SHA256 = {
    "--family": "821b438d13f9ac1173bf71dc4ac2ff6291483321f426f051cfaad832cc2f2edc",
    "--realize": "6ea6633b7063a2d268f97dc8d6722da4a3303da3769b4c0c38e5ccd077b5fa4f",
}


def _intersect_input(mode, tmp_path):
    """A seeded 1500-member family of 1-4 of 96 tokens, or a seeded
    G(400, 0.1) edge file with 1-based ids."""
    rng = random.Random(f"intersect-bytes:{mode}")
    path = tmp_path / "input"
    if mode == "--family":
        tokens = [f"t{i}" for i in range(96)]
        members = [rng.sample(tokens, rng.randint(1, 4)) for _ in range(1500)]
        path.write_text("".join(",".join(m) + "\n" for m in members))
        return [str(path)]
    path.write_text("".join(f"{u + 1} {v + 1}\n" for u in range(400)
                            for v in range(u + 1, 400) if rng.random() < 0.1))
    return [str(path), "--vertices", "400"]


@pytest.mark.parametrize("mode", sorted(INTERSECT_OUTPUT_SHA256))
def test_intersect_output_bytes(tmp_path, capsys, mode):
    assert main(["intersect", mode, *_intersect_input(mode, tmp_path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == INTERSECT_OUTPUT_SHA256[mode]


def test_intersect_realize_non_integer_id_is_usage_error(tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text("1 x\n")
    assert main(["intersect", "--realize", str(edges), "--vertices", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize("mode", [["--family"], ["--realize", "--vertices", "2"]])
def test_intersect_file_not_utf8_is_usage_error(tmp_path, capsys, mode):
    path = tmp_path / "input"
    path.write_bytes(b"1 2\n\xff\n")
    assert main(["intersect", mode[0], str(path), *mode[1:]]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte 4)\n"


def test_vertex_cap_below_one_is_usage_error(capsys):
    # a cap below 1 would skip every cell and read as a pass
    assert main(["verify", "--q", "2", "--n", "1", "--vertex-cap", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --vertex-cap must be >= 1, got -5\n"
    assert captured.out == ""


def test_negative_budget_is_usage_error(capsys):
    assert main(["dim", "--q", "2", "--n", "2", "--budget", "-5"]) == 2
    assert capsys.readouterr().err.startswith("error: budget must be >= 0")


def test_workers_below_one_is_usage_error(capsys):
    assert main(["verify", "--q", "2", "--n", "1", "--workers", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --workers must be >= 1")
    assert captured.out == ""


def test_intersect_needs_a_mode():
    assert run_cli(["intersect"]).returncode == 2


def test_verify_malformed_range_is_usage_error():
    result = run_cli(["verify", "--q", "2", "--n-range", "3..1"])
    assert result.returncode == 2
    assert "malformed" in result.stderr


def test_verify_grid_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(["verify", "--q-range", "2..3", "--n-range", "1..2",
                      "--format", "json", "--out", str(out)])
    # the q=2, n=2 cell honestly fails the partition-coincidence check
    assert result.returncode == 1
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["overall_pass"] is False
    cells = {(r["q"], r["n"]): r for r in report["records"]}
    assert set(cells) == {(2, 1), (2, 2), (3, 1), (3, 2)}
    assert cells[(2, 2)]["twins"]["coincide"] is False
    assert cells[(2, 2)]["pass"] is False
    for cell in [(2, 1), (3, 1), (3, 2)]:
        assert cells[cell]["pass"] is True
    assert cells[(3, 2)]["dim"]["search"] == 5
    assert cells[(3, 2)]["corollary"]["status"] == "verified"
    assert cells[(3, 2)]["exchange"]["holds"] is True
    assert "timings" not in cells[(3, 2)]


def test_verify_json_roundtrips_canonically(tmp_path):
    out = tmp_path / "report.json"
    run_cli(["verify", "--q", "3", "--n", "2", "--format", "json",
             "--out", str(out)])
    raw = out.read_text()
    assert json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n" == raw


def test_verify_deterministic_across_workers(tmp_path):
    args = ["verify", "--q-range", "2..3", "--n-range", "1..2",
            "--format", "json", "--seed", "11"]
    r1 = run_cli(args + ["--workers", "1", "--out", str(tmp_path / "a.json")])
    r2 = run_cli(args + ["--workers", "3", "--out", str(tmp_path / "b.json")])
    assert r1.returncode == r2.returncode
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_report_matches_golden_bytes(tmp_path):
    # Captured from an earlier release; the skip reasons carry the
    # evaluated-subset counts, so the budget accounting is pinned too.
    out = tmp_path / "report.json"
    code = main(["verify", "--q-range", "2..4", "--n-range", "1..3",
                 "--budget", "20000", "--seed", "1", "--format", "json",
                 "--out", str(out)])
    assert code == 1  # the q=2, n=2 twin exception
    golden = DATA / "verify_q2-4_n1-3_budget20000_seed1.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["--q-range", "2..4", "--n-range", "1..3", "--budget", "20000"],
     "verify_q2-4_n1-3_budget20000_seed1.txt"),
    (["--q-range", "2..3", "--n-range", "1..2", "--vertex-cap", "5"],
     "verify_q2-3_n1-2_cap5_seed1.txt"),
])
def test_verify_text_report_matches_golden_bytes(tmp_path, argv, golden):
    # Between them: ok, FAIL, n/a, no-twins, skipped, cell=SKIPPED and
    # OVERALL: FAIL, captured from an earlier release.
    out = tmp_path / "report.txt"
    code = main(["verify", *argv, "--seed", "1", "--format", "text", "--out", str(out)])
    assert code == 1  # the q=2, n=2 twin exception
    assert out.read_bytes() == (DATA / golden).read_bytes()


# (exit code, sha256 of stdout) of the single-cell commands that share a
# check with `verify`, and of a grid past the goldens' q <= 4, captured
# before the checks moved out of the CLI module; the grid's two were
# captured again when the twin-core certificate decided the exchange at
# (3,3), (4,2) and (5,2) and the corollary at (4,3) and (5,3), which it
# skipped before, and again when the certificate was charged 1 + #classes
# instead of prod |c| and so decided the exchange at (4,3) and (5,3) too
_GRID = ("verify", "--q-range", "2..5", "--n-range", "1..3", "--budget", "20000")
OUTPUT_SHA256 = {
    _GRID: (1, "2659377303902b19b2e2180e9faa43d55d99832ceab959038243d557a352780c"),
    _GRID + ("--format", "json"):
        (1, "9d6ec54b0fbf5463983c541fdbebe107a4e49c53d3f0522a3ad24929378b80e4"),
    ("dim", "2", "3"): (0, "cd7ae10664c3f221e62793a30957d21f7aa430c4a31bd60d97abdf59b08cd718"),
    ("dim", "2", "3", "json"):
        (0, "1f1b2f77331605191e927b0b288681902920f89b3fca55668c0d96e094141f28"),
    ("exchange", "2", "3"):
        (0, "339418b585e9b638639b041081ea3b9493c3c9216a27c4d7ac9f000d16508807"),
    ("dim", "2", "4"): (0, "40c8709c7f96269d5791bc32f165987894e52fca57af76d569813c535c555848"),
    ("dim", "2", "4", "json"):
        (0, "dcb6e19ab5920e7e3e2debd7b65385970a8ac3b1106739121ed7b0a08f1511fe"),
    ("exchange", "2", "4"):
        (0, "c9af114890e20c4bcfae0aa7be212bc6bf8473140369ca410848f027641f7b4d"),
    ("dim", "3", "2"): (0, "e844e867fa18b9f10fd0f140c47b05359b9c8b9703a4d1df0f0dcd9ab2849b7d"),
    ("dim", "3", "2", "json"):
        (0, "b7114f402c532e629f8c4addf744446908ae715701647a89c3bcda601f1c4786"),
    ("exchange", "3", "2"):
        (0, "c9da497fbc28d2735e6444b7157fd90e1fc533636321bd1f4305bb3b4019fa82"),
    ("dim", "4", "2"): (0, "69375340c703a2d680dc31bfbc3689c4c6913f3b8f4ab4d6af16141ae4752ed5"),
    ("dim", "4", "2", "json"):
        (0, "f31e2ed420b67b8d4b5a0f72988ec6c03f3a5608be40445b847284959d5143e0"),
    ("exchange", "4", "2"):
        (0, "19cd0049a7472ede4de6e6daa90e0f3f41a1f729a68f8b65e31d47e5d38146f9"),
}


@pytest.mark.parametrize("key", sorted(OUTPUT_SHA256), ids=" ".join)
def test_output_bytes(key, capsys):
    # (command, q, n[, "json"]) or a full argv
    argv = (list(key) if key[0] == "verify" else
            [key[0], "--q", key[1], "--n", key[2], *(["--format", "json"] if key[3:] else [])])
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_SHA256[key]
    assert err == ""


def test_verify_timings_flag(capsys):
    # one window per check, named as perfbench's cli.check_s.* metrics and
    # CI's corollary timing read them, at a decided cell and at one whose
    # checks are skipped
    for argv in (["--q", "3", "--n", "2"], ["--q", "2", "--n", "13", "--budget", "1000"]):
        assert main(["verify", *argv, "--format", "json", "--timings"]) == 0
        [cell] = json.loads(capsys.readouterr().out)["records"]
        assert set(cell["timings"]) == {"counts", "twins", "dim", "corollary", "exchange",
                                        "swaps"}
    assert cell["dim"]["status"] == cell["exchange"]["status"] == "skipped"


def test_verify_timings_text_is_usage_error(capsys):
    # the text report has no place for timings; they used to vanish silently
    assert main(["verify", "--q", "2", "--n", "1", "--timings"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --timings is reported in JSON only; add --format json\n"
    assert captured.out == ""


def test_verify_counterexample_is_skipped_with_the_dim_search(tmp_path):
    # the q=2, n=3 counterexample's "minimum" is read from the search, so
    # a skipped search cannot be stood in for by the formula it checks
    out = tmp_path / "r.json"
    assert main(["verify", "--q", "2", "--n", "3", "--budget", "1",
                 "--format", "json", "--out", str(out)]) == 0
    cell = json.loads(out.read_text())["records"][0]
    assert cell["dim"]["status"] == "skipped"
    assert cell["corollary"] == {"status": "skipped", "reason": "dim search skipped"}
    main(["verify", "--q", "2", "--n", "3", "--budget", "1", "--out", str(out)])
    assert " corollary=skipped " in out.read_text()
    main(["verify", "--q", "2", "--n", "3", "--format", "json", "--out", str(out)])
    cell = json.loads(out.read_text())["records"][0]
    assert cell["dim"]["search"] == 3
    assert cell["corollary"]["status"] == "counterexample-verified"
    assert cell["corollary"]["ok"] is True


def test_verify_corollary_can_fail(monkeypatch, capsys):
    # the corollary reads spanning from hyperplane masks; leave only e1, e2
    # and e1+e2, the least member of each twin class at (3,2), off
    # hyperplane 0, so that of the 16 orbit sets exactly the one omitting
    # all three lies in it
    real, calls = field.FieldSpec.hyperplane_masks, []
    off_plane = {(1, 0), (0, 1), (1, 1)}

    def one_set_in_a_hyperplane(self, n, vectors):
        calls.append(len(vectors))
        masks = real(self, n, vectors).copy()
        for row, v in zip(masks, vectors):
            row[0] = row[0] | np.uint64(1) if tuple(v) in off_plane else row[0] & ~np.uint64(1)
        return masks

    g = ComponentGraph(3, 2)
    masks = one_set_in_a_hyperplane(field.field_new(3), 2,
                                     [vectorspace.decode(v, 3, 2) for v in g.vertex_ids()])
    sets = [w for block in resolving.minimum_resolving_sets(g, 5) for w in block.tolist()]
    assert [field.has_full_rank(field.field_new(3), 2, [vectorspace.decode(v + 1, 3, 2)
                                                        for v in w]) for w in sets] == [True] * 16
    least = {c[0] for c in g.twin_classes()}
    assert [w for w in sets if not (np.bitwise_or.reduce(masks[w]) == ~np.uint64(0)).all()] \
        == [[c for c in range(8) if c not in least]]

    monkeypatch.setattr(field.FieldSpec, "hyperplane_masks", one_set_in_a_hyperplane)
    calls.clear()
    assert main(["verify", "--q", "3", "--n", "2", "--format", "json"]) == 1
    cell = json.loads(capsys.readouterr().out)["records"][0]
    assert cell["corollary"] == {"status": "verified", "minimum_sets": 16,
                                 "all_contain_v_basis": False}
    assert cell["pass"] is False
    assert main(["verify", "--q", "3", "--n", "2"]) == 1
    assert " corollary=FAIL " in capsys.readouterr().out
    assert calls == [8, 8]  # one mask table per cell, over its 8 vertices


def test_verify_corollary_fails_on_a_set_that_does_not_span(monkeypatch, capsys):
    # the spanning test ORs the masks one column at a time; a block whose
    # last set holds only e1 and 2e1 (columns 0 and 1, repeated to width
    # 5) lies on one line, so the corollary must fail
    assert [vectorspace.decode(v, 3, 2) for v in (1, 2)] == [(1, 0), (2, 0)]
    real = resolving.minimum_resolving_sets

    def last_set_on_a_line(g, k, budget=resolving.DEFAULT_BUDGET):
        blocks = [block.copy() for block in real(g, k, budget)]
        blocks[-1][-1] = [0, 1, 0, 1, 0]
        yield from blocks

    monkeypatch.setattr(resolving, "minimum_resolving_sets", last_set_on_a_line)
    assert main(["verify", "--q", "3", "--n", "2", "--format", "json"]) == 1
    cell = json.loads(capsys.readouterr().out)["records"][0]
    assert cell["corollary"] == {"status": "verified", "minimum_sets": 16,
                                 "all_contain_v_basis": False}
    assert main(["verify", "--q", "3", "--n", "2"]) == 1
    assert " corollary=FAIL " in capsys.readouterr().out


def test_verify_corollary_fails_on_an_empty_family(monkeypatch, capsys):
    # a resolving set of size dim exists, so an orbit that yields no set
    # is a failure, not a vacuous pass
    monkeypatch.setattr(resolving, "minimum_resolving_sets",
                        lambda g, k, budget=resolving.DEFAULT_BUDGET: iter(()))
    assert main(["verify", "--q", "3", "--n", "2", "--format", "json"]) == 1
    cell = json.loads(capsys.readouterr().out)["records"][0]
    assert cell["corollary"] == {"status": "verified", "minimum_sets": 0,
                                 "all_contain_v_basis": True}
    assert cell["pass"] is False
    assert main(["verify", "--q", "3", "--n", "2"]) == 1
    assert " corollary=FAIL " in capsys.readouterr().out


# the registry's swaps mutants, under the test ids they had here
@pytest.mark.parametrize("mutant", SWAPS, ids=lambda m: m.name.replace("-", "_"))
def test_verify_swaps_can_fail(mutant, monkeypatch, capsys):
    # each part of the exact swap check must turn a wrong answer into a
    # verdict, never a usage error or a traceback
    monkeypatch.setattr(mutant.target, mutant.attr, mutant.replacement)
    assert main(["verify", "--q", "3", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(" swaps=FAIL cell=FAIL")
    assert captured.err == ""
    assert main(["verify", "--q", "3", "--n", "2", "--format", "json"]) == 1
    cell = json.loads(capsys.readouterr().out)["records"][0]
    assert cell["twin_swap_trials"]["all_resolving"] is False
    assert cell["pass"] is False


def test_verify_swaps_counts_every_twin_pair():
    # N minus the number of skeleton classes pairs, one swap per class; at
    # q = 2 the skeleton classes are single vertices, and only (2,2) has
    # twins, the two unit vectors
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            g = ComponentGraph(q, n)
            [section] = verify._swaps(verify._Cell(g, None))
            body = section.json()
            sizes = np.unique(g.skeleton_array(), return_counts=True)[1]
            if (q, n) == (2, 2):
                assert body == {"status": "checked", "pairs_checked": 1,
                                "classes_swapped": 1, "all_resolving": True}
            elif q == 2:
                assert body == {"status": "no-twins"}
            else:
                assert body == {"status": "checked",
                                "pairs_checked": g.vertex_count - len(sizes),
                                "classes_swapped": int((sizes > 1).sum()),
                                "all_resolving": True}, (q, n)


def test_verify_seed_changes_nothing_but_its_echo(tmp_path):
    # --seed is accepted for compatibility; it only shows as config.seed
    reports = {}
    for seed in ("1", "7"):
        for fmt in ("text", "json"):
            out = tmp_path / f"{seed}.{fmt}"
            assert main(["verify", "--q-range", "2..4", "--n-range", "1..3",
                         "--budget", "20000", "--seed", seed, "--format", fmt,
                         "--out", str(out)]) == 1
            reports[seed, fmt] = out.read_bytes()
    assert reports["1", "text"] == reports["7", "text"]
    one, seven = (json.loads(reports[seed, "json"]) for seed in ("1", "7"))
    assert (one["config"].pop("seed"), seven["config"].pop("seed")) == (1, 7)
    assert one == seven


def test_main_in_process_returns_exit_codes(capsys):
    assert main(["dim", "--q", "2", "--n", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--q", "2", "--n-range", "3..1"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error():
    assert run_cli(["frobnicate"]).returncode == 2


def _run_in(directory, argv, capsys, monkeypatch):
    """Exit code, stdout, stderr and the files written, for one in-process
    run with `directory` as the working directory."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = main(argv)
    out, err = capsys.readouterr()
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(directory.iterdir())}
    return code, out, err, files


@pytest.mark.parametrize("argv", [
    ["twins", "--q", "2", "--n", "12"],
    ["verify", "--q", "2", "--n", "12", "--budget", "1000"],
    ["dim", "--q", "3", "--n", "4", "--budget", "20000"],
    ["graph", "--q", "2", "--n", "11", "--out", "g"],
    # the dim search fits the budget, the corollary's orbit of 3^32 sets
    # and the exchange table do not: one twin-core certificate decides both
    pytest.param(["verify", "--q", "4", "--n", "4", "--budget", "1000000", "--format", "json"],
                 id="verify-orbit-refused"),
    # the 2^N table and the single-set checks read distance columns
    pytest.param(["exchange", "--q", "2", "--n", "4"], id="exchange-table"),
    pytest.param(["verify", "--q-range", "2..3", "--n-range", "1..3", "--budget", "20000"],
                 id="verify-grid"),
], ids=lambda argv: argv[0])
def test_component_graph_routes_build_no_dense_view(argv, tmp_path, capsys, monkeypatch):
    # these routes read the skeletons alone: with both N x N views broken
    # they still run and print the same bytes
    before = _run_in(tmp_path / "plain", argv, capsys, monkeypatch)

    def refuse(self):
        raise AssertionError("an N x N view was built")

    monkeypatch.setattr(ComponentGraph, "adjacency_matrix", refuse)
    monkeypatch.setattr(ComponentGraph, "distance_matrix", refuse)
    assert _run_in(tmp_path / "refused", argv, capsys, monkeypatch) == before
    # the grid holds (2,2), whose twins check fails by design (criterion 3)
    assert before[0] == (1 if "--q-range" in argv else 0)


@pytest.mark.parametrize("argv", [
    ["verify", "--q-range", "2..3", "--n-range", "1..3", "--budget", "20000"],
    ["verify", "--q", "2", "--n", "12", "--budget", "1000"],
], ids=["grid", "q2-n12"])
def test_verify_builds_the_packed_rows_once_per_cell(argv, capsys, monkeypatch):
    # the twins, dim, corollary and swaps checks all read the one twin
    # partition of the cell's graph; `verify` builds a fresh graph per cell
    real, built = graph.twin_classes_by_row_digest, []

    def counted(rows, n):
        built.append(n)
        return real(rows, n)

    monkeypatch.setattr(graph, "twin_classes_by_row_digest", counted)
    main(argv + ["--format", "json"])
    cells = [(r["q"], r["n"]) for r in json.loads(capsys.readouterr().out)["records"]]
    assert built == [q ** n - 1 for q, n in cells]


@pytest.mark.parametrize("q, n, budget", [(16, 3, resolving.DEFAULT_BUDGET), (4, 3, 20_000),
                                          (4, 3, resolving.DEFAULT_BUDGET)])
def test_verify_checks_one_certificate_per_cell(q, n, budget, monkeypatch):
    # the corollary (where the orbit is refused) and the exchange (where the
    # 2^N table is) read one certificate; premise (i) and swaps (a) read one
    # pass of class tests; dim and swaps (b) keep their own `resolves`
    certificates, tested, resolved = [], [], []
    real_certificate, real_is_twin_class = (resolving.twin_core_certificate,
                                            twins.is_twin_class)
    real_resolves = resolving.resolves

    def certificate(g, *args):
        certificates.append((g.q, g.n))
        return real_certificate(g, *args)

    def is_twin_class(g, members):
        tested.append(tuple(members))
        return real_is_twin_class(g, members)

    def resolves(g, w):
        resolved.append(tuple(sorted(w)))
        return real_resolves(g, w)

    monkeypatch.setattr(resolving, "twin_core_certificate", certificate)
    monkeypatch.setattr(twins, "is_twin_class", is_twin_class)
    monkeypatch.setattr(resolving, "resolves", resolves)
    record, _ = verify.verify_cell(q, n, budget, vectorspace.DEFAULT_VERTEX_CAP, False)
    assert record["pass"] and record["exchange"]["method"] == "twin-core-certificate"
    assert "skipped" not in [body.get("status") for body in record.values()
                             if isinstance(body, dict)]
    g = ComponentGraph(q, n)
    classes = [tuple(x + 1 for x in c) for c in g.twin_classes() if len(c) > 1]
    assert certificates == [(q, n)]
    assert sorted(tested) == sorted(classes)
    # dim's witness, the certificate's core and swaps (b)'s basis are one
    # set at q >= 3; swaps (b) also checks its swap
    core = tuple(x + 1 for x in resolving.TwinCore(g.twin_classes()).core)
    assert core == resolving.canonical_metric_basis(q, n)
    assert resolved[:3] == [core] * 3 and len(resolved) == 4 and resolved[3] != core


def test_exchange_refuses_before_the_matrix(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a distance was read before the table was admitted")

    monkeypatch.setattr(ComponentGraph, "distance_columns", refuse)
    assert main(["exchange", "--q", "2", "--n", "12", "--budget", "1000"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: full subset table needs "
                                       "2^4095 evaluations, over the budget 1000\n")
    # (2,5)'s classes are singletons, so the certificate refuses from
    # their sizes and the table's refusal stands
    assert main(["exchange", "--q", "2", "--n", "5", "--budget", "3000000000"]) == 3
    assert capsys.readouterr().err == ("budget exceeded: full subset table needs "
                                       "N <= 20, got N = 31\n")
    # (3,3)'s certificate is charged 1 + 7 evaluations, one per class test
    # and one for the core, and is refused below that from the class count
    for budget in ("0", "7"):
        assert main(["exchange", "--q", "3", "--n", "3", "--budget", budget]) == 3
        assert capsys.readouterr().err == ("budget exceeded: twin-core certificate needs "
                                           f"8 evaluations, over the budget {budget}\n")


def test_exchange_by_the_twin_core_certificate(capsys):
    # (3,3): the 2^26 table is refused, and the certificate decides from a
    # budget of 1 + 7, its 7 class tests and the core, though its family
    # counts 4,096 sets
    for budget in ("20000", "8"):
        assert main(["exchange", "--q", "3", "--n", "3", "--budget", budget]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"q": 3, "n": 3, "holds": True, "method": "twin-core-certificate",
                           "size_counts": {"19": 4096}, "sizes": [19], "witness": None}
    for budget in ("0", "7"):
        assert main(["exchange", "--q", "3", "--n", "3", "--budget", budget]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "twin-core certificate needs 8 evaluations" in captured.err


def test_graph_export_peak_memory(tmp_path):
    # the (2,11) files are 30 MB and 18 MB; they are written a row at a time
    prefix = str(tmp_path / "g")
    tracemalloc.start()
    try:
        assert main(["graph", "--q", "2", "--n", "11", "--out", prefix]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Path(prefix + ".gv").stat().st_size > 30_000_000
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("mode", sorted(INTERSECT_OUTPUT_SHA256))
def test_intersect_peak_memory(tmp_path, mode):
    # the graph is one K x K bool matrix (K^2 bytes) set from the tokens'
    # holders, and the --family lines go out a member row at a time
    out = tmp_path / "out"
    argv = ["intersect", mode, *_intersect_input(mode, tmp_path), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INTERSECT_OUTPUT_SHA256[mode]
    assert peak <= 8 * 2 ** 20
