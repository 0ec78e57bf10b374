import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from resolvdim.cli import main

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


def test_dim_budget_exceeded_exit_code():
    # the pruned walk decides (3,3) in 19 node evaluations
    result = run_cli(["dim", "--q", "3", "--n", "3", "--budget", "10"])
    assert result.returncode == 3
    assert "budget exceeded" in result.stderr


def test_budget_env_var_default(tmp_path):
    # RESOLVDIM_BUDGET is the only budget source: the child gets nothing
    # else from the environment but the path to the package.
    result = subprocess.run(
        CLI + ["dim", "--q", "3", "--n", "3"],
        capture_output=True, text=True,
        env=child_env({"PATH": "/usr/bin:/bin", "RESOLVDIM_BUDGET": "10"}))
    assert result.returncode == 3
    assert "budget exceeded" in result.stderr


@pytest.mark.parametrize("q,n", [(4, 3), (5, 3), (3, 4), (2, 10)])
def test_dim_decided_within_vertex_count_budget(q, n, capsys):
    # the pruned walk needs k nodes at q >= 3 and 2^(n-1) at q = 2
    budget = q ** n - 1
    assert main(["dim", "--q", str(q), "--n", str(n), "--budget", str(budget)]) == 0
    assert capsys.readouterr().out.endswith(" match=true\n")


@pytest.mark.parametrize("q,n", [(2, 12), (4, 4), (5, 4), (3, 5), (7, 3)])
def test_dim_default_budget_decides_larger_cells(q, n, capsys, monkeypatch):
    monkeypatch.delenv("RESOLVDIM_BUDGET", raising=False)
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
    assert captured.err == "error: self-loop at vertex 0\n"
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


def test_negative_budget_env_var_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RESOLVDIM_BUDGET", "-5")
    assert main(["dim", "--q", "2", "--n", "2"]) == 2
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


def test_verify_timings_flag(tmp_path):
    out = tmp_path / "t.json"
    run_cli(["verify", "--q", "2", "--n", "1", "--format", "json",
             "--timings", "--out", str(out)])
    report = json.loads(out.read_text())
    assert "timings" in report["records"][0]


def test_verify_timings_text_is_usage_error(capsys):
    # the text report has no place for timings; they used to vanish silently
    assert main(["verify", "--q", "2", "--n", "1", "--timings"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --timings is reported in JSON only; add --format json\n"
    assert captured.out == ""


def test_main_in_process_returns_exit_codes(capsys):
    assert main(["dim", "--q", "2", "--n", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--q", "2", "--n-range", "3..1"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error():
    assert run_cli(["frobnicate"]).returncode == 2
