import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import xconn
from xconn import solver, verifier
from xconn.cli import run


def out_of(capsys):
    return capsys.readouterr().out


def test_formula_prints_value(capsys):
    assert run(["formula", "--family", "pxp", "--m", "5", "--n", "5", "--g", "3"]) == 0
    assert out_of(capsys) == "5\n"


def test_formula_small_case_route(capsys):
    assert run(["formula", "--family", "pxp", "--m", "1", "--n", "7", "--g", "2"]) == 0
    assert out_of(capsys) == "1\n"


def test_formula_out_of_guard_exits_2(capsys):
    assert run(["formula", "--family", "cxp", "--m", "4", "--n", "3", "--g", "3"]) == 2


@pytest.mark.parametrize("n, code", [("0", 1), ("-5", 1), ("2", 2)])
def test_formula_cxp_path_order(capsys, n, code):
    # no path of order n < 1 exists; orders 1 and 2 are outside the domain
    assert run(["formula", "--family", "cxp", "--m", "4", "--n", n, "--g", "0"]) == code
    assert capsys.readouterr().err.startswith("error: " if code == 1 else "out of domain: ")


def test_formula_json(capsys):
    assert run(["formula", "--family", "cxc", "--m", "6", "--n", "6", "--g", "2",
                "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["value"] == 11 and doc["active_terms"] == ["block"]


def test_exact_on_family(capsys):
    assert run(["exact", "--family", "cxc", "--m", "4", "--n", "4", "--g", "0"]) == 0
    text = out_of(capsys)
    assert text.startswith("kappa_0 = 8")
    assert "witness ids:" in text and "witness coords:" in text


def test_exact_json_subset_solver(capsys):
    assert run(["exact", "--family", "pxp", "--m", "3", "--n", "3", "--g", "0",
                "--solver", "subset", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["value"] == 3 and doc["solver"] == "subset"
    assert len(doc["witness"]) == 3


def test_exact_budget_inconclusive():
    assert run(["exact", "--family", "pxp", "--m", "3", "--n", "3", "--g", "0",
                "--solver", "subset", "--budget", "2"]) == 3


def test_exact_negative_budget_reports_error(capsys):
    assert run(["exact", "--family", "pxp", "--m", "3", "--n", "3", "--g", "0",
                "--solver", "subset", "--budget", "-1"]) == 1
    assert capsys.readouterr().err == "error: subset budget -1 is negative\n"


@pytest.mark.parametrize("solver", [[], ["--solver", "fragment"]])
def test_exact_budget_with_the_fragment_solver_reports_error(capsys, solver):
    # the fragment solver takes no budget, so one given to it is refused, not ignored
    assert run(["exact", "--family", "pxp", "--m", "4", "--n", "4", "--g", "1",
                "--budget", "1", *solver]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --budget bounds the subset solver only\n"
    assert captured.out == ""


def test_gen_exact_round_trip(tmp_path, capsys):
    path = tmp_path / "torus.json"
    assert run(["gen", "--family", "cxc", "--m", "4", "--n", "4",
                "--out", str(path)]) == 0
    assert run(["exact", "--file", str(path), "--g", "0", "--format", "json"]) == 0
    from_file = json.loads(out_of(capsys))
    assert run(["exact", "--family", "cxc", "--m", "4", "--n", "4", "--g", "0",
                "--format", "json"]) == 0
    in_process = json.loads(out_of(capsys))
    assert from_file["value"] == in_process["value"] == 8
    assert from_file["witness"] == in_process["witness"]
    assert from_file["stats"] == in_process["stats"]  # the file declares the same maps


def test_product_dot_output(capsys):
    assert run(["product", "--family", "pxp", "--m", "2", "--n", "2",
                "--format", "dot"]) == 0
    dot = out_of(capsys)
    assert dot.startswith("graph G {") and 'label="(x1,y1)"' in dot


def test_dot_output_escapes_quoted_labels(tmp_path, capsys):
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "labels": ['a"b', "c\\d"]}))
    assert run(["gen", "--format", "dot", "--file", str(path)]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[1] == '  0 [label="a\\"b"];'
    assert lines[2] == '  1 [label="c\\\\d"];'


def test_product_from_files(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--family", "path", "--n", "3", "--out", str(f1)]) == 0
    assert run(["gen", "--family", "cycle", "--n", "4", "--out", str(f2)]) == 0
    assert run(["product", "--file1", str(f2), "--file2", str(f1)]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["n"] == 12 and doc["product"]["kind"] == "strong"


@pytest.mark.parametrize("given, missing", [("--file1", "--file2"), ("--file2", "--file1")])
def test_product_from_one_file_names_the_missing_flag(tmp_path, capsys, given, missing):
    path = tmp_path / "p3.json"
    assert run(["gen", "--family", "path", "--n", "3", "--out", str(path)]) == 0
    assert run(["product", given, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: a product of two files needs {missing}\n"
    assert captured.out == ""


def test_file_with_family_flags_is_refused_before_it_is_opened(tmp_path, capsys):
    # the file gives the graph, so --family, --m and --n would be ignored; a
    # file that does not exist shows it is not read
    missing = str(tmp_path / "no-such.json")
    assert run(["exact", "--file", missing, "--family", "pxp", "--m", "3", "--n", "3",
                "--g", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --file gives the graph, so --family, --m, --n "
                            "would be ignored\n")
    assert captured.out == ""


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_gen_path_or_cycle_with_m_is_refused(capsys, family):
    assert run(["gen", "--family", family, "--m", "9", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --family {family} takes --n only, so --m would be ignored\n"
    assert captured.out == ""


def test_product_family_with_files_is_refused_before_they_are_opened(tmp_path, capsys):
    f1, f2 = str(tmp_path / "p3.json"), str(tmp_path / "c4.json")
    assert run(["product", "--family", "cxc", "--m", "5", "--n", "5",
                "--file1", f1, "--file2", f2]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --file1 and --file2 give the factors, so --family, "
                            "--m, --n would be ignored\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["formula", "--m", "5", "--n", "5", "--g", "0"],
    ["witness", "--m", "5", "--n", "5", "--g", "0", "--which", "block"],
])
def test_formula_and_witness_require_family(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith("error: the following arguments are required: --family\n")


def test_product_without_family_or_files_reports_error(capsys):
    assert run(["product", "--m", "3", "--n", "3"]) == 1
    assert capsys.readouterr().err == "error: a product needs --family or --file1 and --file2\n"


def test_witness_command(capsys):
    assert run(["witness", "--family", "pxp", "--m", "6", "--n", "6", "--g", "2",
                "--which", "block", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["size"] == doc["predicted_size"] == 5 and doc["is_g_extra_cut"]
    assert run(["witness", "--family", "cxc", "--m", "4", "--n", "4", "--g", "0",
                "--which", "block"]) == 2  # not strictly minimal


def test_witness_text_output(capsys):
    assert run(["witness", "--family", "pxp", "--m", "4", "--n", "4", "--g", "1",
                "--which", "layers1"]) == 0
    assert out_of(capsys) == ("layers1 cut, size 4 (predicted 4)\n"
                              "ids: 1 5 9 13\n"
                              "coords: (x1,y2) (x2,y2) (x3,y2) (x4,y2)\n"
                              "valid 1-extra cut: yes\n")


def test_witness_dot_output_highlights_the_cut(capsys):
    assert run(["witness", "--family", "pxp", "--m", "3", "--n", "3", "--g", "0",
                "--which", "layers1", "--format", "dot"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0] == "graph G {" and lines[-1] == "}"
    filled = [line.split()[0] for line in lines if "fillcolor" in line]
    assert filled == ["1", "4", "7"]
    assert sum(" -- " in line for line in lines) == 20  # edges of P3 x P3


def test_classify_cut_command(capsys):
    assert run(["classify-cut", "--family", "pxp", "--m", "3", "--n", "3",
                "--cut", "1,4,7"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["verdict"] == "i_set" and doc["axis"] == "factor2"
    assert run(["classify-cut", "--family", "pxp", "--m", "3", "--n", "3",
                "--cut", "0"]) == 1  # not a cut


def test_check_layers_command(capsys):
    assert run(["check-layers", "--family", "pxp", "--m", "3", "--n", "3",
                "--g", "0", "--cut", "3,4,5"]) == 0
    assert out_of(capsys) == "pass\n"


def test_identity_command(capsys):
    assert run(["identity", "--kind", "path_path", "--g", "2"]) == 0
    assert run(["identity", "--kind", "cycle_cycle", "--g", "2"]) == 4


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run(["sweep", "--families", "pxp", "--m-range", "3:4",
                "--n-range", "3:4", "--threads", "1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("family,m,n,g")
    assert all(",1," in line or line.startswith("family") for line in text.splitlines())


def test_sweep_out_prints_one_summary_line(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["sweep", "--families", "pxp", "--m-range", "3:3", "--n-range", "3:4",
                "--threads", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}: 6 rows, 6 asserted agreements, 0 failures\n"
    assert captured.err == ""
    assert len(out.read_text().splitlines()) == 7


def test_sweep_without_out_writes_only_the_report(capsys):
    assert run(["sweep", "--families", "pxp", "--m-range", "3:3", "--n-range", "3:3",
                "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("family,m,n,g") and "wrote" not in captured.out
    assert captured.err == ""


def test_sweep_json(capsys):
    assert run(["sweep", "--families", "pxp", "--m-range", "3:3",
                "--n-range", "3:3", "--threads", "1", "--format", "json"]) == 0
    doc = json.loads(out_of(capsys))
    assert doc["rows"][0]["agree"] is True


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        run(["formula", "--family", "pxp", "--m", "5", "--n", "5", "--g", "3",
             "--bogus"])
    assert exc.value.code == 1


def test_identical_invocations_identical_bytes(capsys):
    args = ["exact", "--family", "cxp", "--m", "4", "--n", "3", "--g", "1",
            "--format", "json"]
    assert run(args) == 0
    first = out_of(capsys)
    assert run(args) == 0
    second = out_of(capsys)
    assert first == second


def test_sweep_json_is_the_same_serial_and_pooled(capsys):
    args = ["sweep", "--families", "pxp", "--m-range", "3:4", "--n-range", "3:3",
            "--format", "json"]
    assert run(args + ["--threads", "1"]) == 0
    serial = out_of(capsys)
    assert run(args + ["--threads", "2"]) == 0
    assert out_of(capsys) == serial


MALFORMED_GRAPHS = [
    ('{"n": 3}', "KeyError: 'edges'"),
    ('{"n": 3, "edges": 5}', "edges must be a list"),
    ('[1, 2]', "the document must be an object"),
    ('{"n": 3, "edges": [null]}', "edges[0] must be a pair of integers"),
    ('not json', "{path}: Expecting value"),
    ("[" * 100_000, "{path}: JSON nested too deeply"),
    ('{"n": 3, "edges": [[true, 1], [1, 2]]}', "edges[0] must be a pair of integers"),
    ('{"n": 3, "edges": [[0, 1], [1.0, 2]]}', "edges[1] must be a pair of integers"),
    ('{"n": 3, "edges": [[0, 1], [1, 2, 0]]}', "edges[1] must be a pair of integers"),
    ('{"n": 3, "edges": [[0]]}', "edges[0] must be a pair of integers"),
    ('{"n": -1, "edges": []}', "n must be a non-negative integer"),
    ('{"n": 3.0, "edges": []}', "n must be a non-negative integer"),
    ('{"n": true, "edges": []}', "n must be a non-negative integer"),
    ('{"n": 2, "edges": [[0, 1]], "labels": [0, 1]}', "labels must be a list of strings"),
    ('{"n": 2, "edges": [[0, 1]], "labels": "ab"}', "labels must be a list of strings"),
    # orders the interpreter refuses before it allocates anything; never
    # put a size here that can actually be allocated
    ('{"n": 4611686018427387904, "edges": []}', "input too large to build (MemoryError)"),
    ('{"n": 9223372036854775808, "edges": []}', "input too large to build (OverflowError)"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_GRAPHS,
                         ids=[doc if len(doc) < 100 else "deeply nested"
                              for doc, _ in MALFORMED_GRAPHS])
def test_malformed_graph_json_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run(["exact", "--file", str(path), "--g", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(path=path) in err


# factor orders the interpreter cannot index (2**63) or allocate (2**62);
# each command must be refused before it builds anything of that order
OVERSIZED_COMMANDS = [
    ["gen", "--family", "path", "--n", str(2 ** 63)],
    ["gen", "--family", "cycle", "--n", str(2 ** 62)],
    ["gen", "--family", "pxp", "--m", str(2 ** 62), "--n", "3"],
    ["witness", "--family", "pxp", "--m", str(2 ** 62), "--n", "3", "--g", "0",
     "--which", "layers1"],
    ["exact", "--family", "cxc", "--m", str(2 ** 63), "--n", "4", "--g", "0"],
]

# run in a child capped at 1 GiB of address space, so that a command which
# starts to build anyway fails there and cannot exhaust the machine's memory;
# never run these commands without the cap
CAPPED_RUN = """
import resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from xconn.cli import run
tracemalloc.start()
code = run(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("argv", OVERSIZED_COMMANDS, ids=" ".join)
def test_an_order_too_large_to_build_exits_1_at_once(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(xconn.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", CAPPED_RUN, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    code, peak = map(int, out.stdout.split())
    assert code == 1
    assert out.stderr.startswith("error: input too large to build")
    assert "Traceback" not in out.stderr
    assert peak < 10 << 20  # bytes traced while the command ran


def test_product_with_integer_labels_exits_1(tmp_path, capsys):
    assert run(["product", "--family", "pxp", "--m", "3", "--n", "3"]) == 0
    doc = json.loads(out_of(capsys))
    doc["labels"] = list(range(9))
    path = tmp_path / "int_labels.json"
    path.write_text(json.dumps(doc))
    assert run(["exact", "--file", str(path), "--g", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: malformed graph JSON (labels must be a list of strings)\n"
    assert captured.out == ""


@pytest.mark.parametrize("meta", ['{"m": 2}', '7', '{"m": 2, "n": 2, "kind": null}',
                                  '{"m": 2.0, "n": 2.0, "kind": "strong"}',
                                  '{"m": "a", "n": "b", "kind": "strong"}'])
def test_malformed_product_json_exits_1(tmp_path, capsys, meta):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], '
                    f'"product": {meta}}}')
    assert run(["check-layers", "--file", str(path), "--g", "0", "--cut", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_graph_labelled_product_is_not_a_product(tmp_path, capsys):
    path = tmp_path / "labelled.json"
    path.write_text('{"n": 2, "edges": [[0, 1]], "labels": ["product", "b"]}')
    assert run(["exact", "--file", str(path), "--g", "0"]) == 0
    assert out_of(capsys) == "kappa_0 = infinity\n"


@pytest.mark.parametrize("text", ["3", "3:x", "1:2:3", ""])
def test_sweep_range_not_lo_hi_reports_error(capsys, text):
    # '' too: an empty range does not stand for the default grid
    assert run(["sweep", "--families", "pxp", "--m-range", text, "--threads", "1"]) == 1
    assert capsys.readouterr().err == f"error: --m-range {text!r} is not lo:hi\n"


@pytest.mark.parametrize("flag", ["--m-range", "--n-range"])
def test_sweep_reversed_range_reports_error(capsys, flag):
    assert run(["sweep", "--families", "pxp", flag, "5:3", "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} '5:3' is reversed: lo > hi\n"
    assert captured.out == ""


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_thread_count_below_one_reports_error(capsys, threads):
    assert run(["sweep", "--families", "pxp", "--m-range", "3:3", "--n-range", "3:3",
                "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: threads must be at least 1, got {threads}\n"
    assert captured.out == ""


def test_sweep_grid_without_cells_reports_error(capsys):
    assert run(["sweep", "--families", "pxp", "--m-range", "1:2", "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: the sweep grid selects no cell: m_range (1, 2), "
                            "n_range None, least orders (m, n) pxp (3, 3)\n")
    assert captured.out == ""


def test_sweep_g_list_not_integers_reports_error(capsys):
    assert run(["sweep", "--families", "pxp", "--g-list", "0,x", "--threads", "1"]) == 1
    assert capsys.readouterr().err == ("error: --g-list '0,x' is not a comma-separated "
                                       "list of integers\n")


@pytest.mark.parametrize("flag, message", [
    ("--families", "unknown family ''"),
    ("--g-list", "explicit_g () selects no g; None selects every in-guard g")])
def test_sweep_empty_list_reports_error(capsys, flag, message):
    # an empty list selects nothing; it does not stand for the default
    assert run(["sweep", f"{flag}=", "--m-range", "3:3", "--n-range", "3:3",
                "--threads", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_sweep_g_list_selects_sorted_distinct_g(capsys):
    assert run(["sweep", "--families", "pxp", "--m-range", "3:3", "--n-range", "3:4",
                "--g-list", "2,0,2", "--threads", "1"]) == 0
    rows = [line.split(",")[:4] for line in out_of(capsys).splitlines()[1:]]
    assert rows == [["pxp", "3", "3", "0"], ["pxp", "3", "3", "2"],
                    ["pxp", "3", "4", "0"], ["pxp", "3", "4", "2"]]


def test_sweep_cell_above_the_vertex_cap_runs_no_solve(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("fragment search on a cell above MAX_VERTICES")

    monkeypatch.setattr(solver, "_fragment_search", no_search)
    assert run(["sweep", "--families", "cxc", "--m-range", "7:7", "--n-range", "6:6",
                "--g-list", "0", "--threads", "1"]) == 0
    captured = capsys.readouterr()
    # 42 vertices: formula and witnesses only, blank oracle and agree
    assert captured.out.splitlines()[1] == "cxc,7,6,0,1,8,,,14,12,8,1,,skip"
    assert captured.err == ""



def test_sweep_settles_the_torus_gap_cell(capsys):
    # C6 x C6 at g=2: the ceiling term ceil(4*sqrt(3)) + 4 = 11 is active, but no
    # 2-extra cut has fewer than 2*ceil(2*sqrt(3)) + 4 = 12 vertices (895,193
    # fragment nodes, a few seconds)
    assert run(["sweep", "--families", "cxc", "--m-range", "6:6", "--n-range", "6:6",
                "--g-list", "2", "--threads", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ("family,m,n,g,in_guard,formula,oracle,agree,"
                            "w_layers1,w_layers2,w_block,w_valid,layer_bounds,cut_classes\n"
                            "cxc,6,6,2,1,11,12,0,12,12,12,1,1,\n")
    assert captured.err == "FAIL cxc m=6 n=6 g=2: formula 11 != oracle 12\n"


def test_sweep_worker_death_is_inconclusive(capsys, monkeypatch):
    class DeadPool:
        """Stands in for the process pool; no worker process is started."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, cells):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly "
                                    "while the future was running or pending.")

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", DeadPool)
    assert run(["sweep", "--families", "pxp", "--m-range", "3:4", "--n-range", "3:3",
                "--threads", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("inconclusive: A process in the process pool was terminated "
                            "abruptly while the future was running or pending.\n")
    assert captured.out == ""

def test_unknown_sweep_family_reports_error(capsys):
    assert run(["sweep", "--families", "pxp,torus", "--threads", "1"]) == 1
    assert capsys.readouterr().err == "error: unknown family 'torus'\n"


def test_product_command_needs_a_product(tmp_path, capsys):
    path = tmp_path / "p3.json"
    assert run(["gen", "--family", "path", "--n", "3", "--out", str(path)]) == 0
    assert run(["classify-cut", "--file", str(path), "--cut", "1"]) == 1
    assert capsys.readouterr().err == "error: classify-cut needs a product graph\n"
    assert run(["check-layers", "--file", str(path), "--g", "0", "--cut", "1"]) == 1
    assert capsys.readouterr().err == "error: check-layers needs a product graph\n"


def test_unparsable_cut_reports_error(capsys):
    assert run(["classify-cut", "--family", "pxp", "--m", "3", "--n", "3",
                "--cut", "1,x"]) == 1
    assert "error: --cut '1,x'" in capsys.readouterr().err


def test_missing_graph_reports_error(capsys):
    assert run(["exact", "--g", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_fragment_search_deeper_than_recursion_limit_is_inconclusive(tmp_path, capsys):
    path = tmp_path / "p2500.json"
    assert run(["gen", "--family", "path", "--n", "2500", "--out", str(path)]) == 0
    assert run(["exact", "--file", str(path), "--g", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: ") and "recursion limit" in err
    assert "Traceback" not in err
