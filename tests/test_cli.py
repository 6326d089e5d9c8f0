import csv
import json
import os
import stat

import pytest

from rwap.bench import CSV_COLUMNS, rows_to_csv
from rwap.cli import main
from rwap.conflicts import build_conflict_sets, build_strong_groups
from rwap.gen import generate, synth_topology
from rwap.instance import (
    Instance, InstanceError, Lightpath, Network, Request, instance_to_dict, load_instance, network_from_dict,
    save_instance, write_atomic,
)
from rwap.ip import build_ip, lp_text
from rwap.qubo import build_qubo, qubo_text
from rwap.weights import beta_base, tight_example

from helpers import figure1_instance, parallel_link_requests


@pytest.fixture()
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(figure1_instance(), str(path))
    return str(path)


def test_gen_command(tmp_path, capsys):
    out = tmp_path / "generated.json"
    rc = main(
        [
            "gen",
            "--topology",
            "synth:8,1.6",
            "--wavelengths",
            "2",
            "--requests",
            "3",
            "--paths",
            "1",
            "--seed",
            "4",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    inst = load_instance(str(out))
    assert inst.n_vars == 3 * 2 * 1 * 2


def test_gen_from_topology_file(tmp_path, inst_path):
    # an instance document doubles as a topology file ({nodes, links} is read)
    out = tmp_path / "regen.json"
    rc = main(
        ["gen", "--topology", inst_path, "--wavelengths", "1", "--requests", "2",
         "--paths", "1", "--seed", "0", "-o", str(out)]
    )
    assert rc == 0
    regen = load_instance(str(out))
    assert regen.network == figure1_instance().network


def _error_line(capsys) -> str:
    """The one stderr line of a command that ended in exit status 2."""
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("spec", ["synth:10", "synth:10,1.5,3", "synth:ten,1.5", "synth:10,"])
def test_gen_names_the_synth_form_on_a_malformed_spec(tmp_path, capsys, spec):
    argv = ["gen", "--topology", spec, "--wavelengths", "1", "--requests", "1", "--paths", "1"]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert _error_line(capsys) == f"error: topology {spec!r}: expected synth:<nodes>,<avg_out_degree>\n"
    assert not (tmp_path / "out.json").exists()


def test_gen_names_a_nan_degree(tmp_path, capsys):
    argv = ["gen", "--topology", "synth:10,nan", "--wavelengths", "1", "--requests", "1", "--paths", "1"]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert _error_line(capsys) == "error: average out-degree nan is not a number\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("doc", [{"nodes": 3}, {"links": [[0, 1]]}, [1, 2]])
def test_gen_rejects_a_malformed_topology_file(tmp_path, capsys, doc):
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps(doc))
    argv = ["gen", "--topology", str(topology), "--wavelengths", "1", "--requests", "1", "--paths", "1"]
    assert main(argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert _error_line(capsys).startswith("error: malformed network document")


def _figure1_doc(change):
    doc = instance_to_dict(figure1_instance())
    change(doc)
    return doc


MALFORMED_VALUES = {
    "link of three ends": ("network", {"nodes": 2, "links": [[0, 1, 2]]}),
    "node count": ("network", {"nodes": "two", "links": [[0, 1]]}),
    "infinite node count": ("network", {"nodes": float("inf"), "links": []}),
    "wavelength count": ("instance", _figure1_doc(lambda doc: doc.update(wavelengths="x"))),
    "lightpath wavelength": ("instance", _figure1_doc(lambda doc: doc["requests"][0]["working"][0].update(wavelength="z"))),
    "fractional node count": ("network", {"nodes": 2.9, "links": []}),
    "link as a string": ("network", {"nodes": 2, "links": ["01"]}),
    "boolean node count": ("network", {"nodes": True, "links": []}),
    "request source as a string": ("instance", _figure1_doc(lambda doc: doc["requests"][0].update(source="0"))),
    "fractional lightpath wavelength": (
        "instance", _figure1_doc(lambda doc: doc["requests"][0]["working"][0].update(wavelength=0.5))
    ),
}


@pytest.mark.parametrize("case", MALFORMED_VALUES)
def test_a_malformed_value_is_an_instance_error(tmp_path, capsys, case):
    part, doc = MALFORMED_VALUES[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    gen = ["gen", "--topology", str(path), "--wavelengths", "1", "--requests", "1", "--paths", "1", "-o", str(out)]
    malformed = f"^malformed {part} document: "
    with pytest.raises(InstanceError, match=malformed):
        load_instance(str(path))
    if part == "network":
        with pytest.raises(InstanceError, match=malformed):
            network_from_dict(doc)
        assert main(gen) == 2
        assert _error_line(capsys).startswith(f"error: malformed {part} document: ")
        assert not out.exists()
    else:  # a topology file is read for its network part only
        assert network_from_dict(doc) == figure1_instance().network
        assert main(gen) == 0


@pytest.mark.parametrize("doc, message", [
    ({"nodes": 2, "links": [[0, 5]]}, "^link 0 endpoint out of range$"),
    (_figure1_doc(lambda doc: doc["requests"][0]["working"][0].update(wavelength=9)), "wavelength"),
])
def test_validation_errors_keep_their_own_message(tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match=message) as info:
        load_instance(str(path))
    assert "malformed" not in str(info.value)


def test_conflicts_command(inst_path, capsys):
    assert main(["conflicts", inst_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["c1"], data["c2"], data["c3"], data["c4"]) == (1, 0, 1, 1)
    assert data["base_constraints"] == 7


def test_weights_command(inst_path, capsys):
    assert main(["weights", inst_path, "--tight", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["beta_base"] == 11
    assert data["beta_tight"] is not None


def test_export_lp_command(inst_path, tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert main(["export-lp", inst_path, "--model", "strong", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("Minimize") and "slot_" in text


def test_export_qubo_command(inst_path, tmp_path, capsys):
    out = tmp_path / "model.qubo"
    assert main(["export-qubo", inst_path, "-o", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "7 0"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["export-lp", "--model", "base"], "7 binaries, 7 constraints"),
        (["export-lp", "--model", "strong"], "7 binaries, 12 constraints"),
        (["export-qubo"], "n=7, rho=111 (separation bound 25)"),
    ],
)
def test_exported_files_match_the_library(inst_path, tmp_path, capsys, argv, expected):
    out = tmp_path / "model.out"
    assert main([argv[0], inst_path, *argv[1:], "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: {expected}\n"
    inst = load_instance(inst_path)
    w = beta_base(inst)
    conflicts = build_conflict_sets(inst)
    if argv[0] == "export-qubo":
        text = qubo_text(build_qubo(inst, conflicts, w.alpha, w.beta, w.beta + 100))
    else:
        structure = conflicts if argv[-1] == "base" else build_strong_groups(inst)
        text = lp_text(build_ip(inst, structure, w.alpha, w.beta, argv[-1]))
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "method,extra",
    [
        ("da", ["--iterations", "1500", "--seed", "3"]),
        ("rs", ["--budget", "4", "--seed", "1"]),
        ("exact", []),
        ("bnb", []),
    ],
)
def test_solve_methods_agree_on_hand_example(inst_path, tmp_path, capsys, method, extra):
    out = tmp_path / "solution.json"
    rc = main(["solve", inst_path, "--method", method, "-o", str(out)] + extra)
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["f_beta"] == 2 and payload["feasible"]
    assert set(payload) >= {"bits", "granted", "objective", "f_alpha", "f_beta"}


@pytest.mark.parametrize(
    "method,extra,expected",
    [
        ("bnb", ["--node-limit", "0"], {"optimal": False, "bound": -1, "nodes": 0}),
        ("exact", ["--beta", "1"], {"optimal": True, "bound": 0}),
        ("da", ["--iterations", "0"], {"energy": 0, "iterations": 0, "repaired": False}),
    ],
)
def test_solution_json_keeps_zero_and_false_fields(tmp_path, capsys, method, extra, expected):
    path = tmp_path / "tight.json"
    save_instance(tight_example(1, 1), str(path))
    rc = main(["solve", str(path), "--method", method] + extra)
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert {key: payload.get(key) for key in expected} == expected


@pytest.mark.parametrize(
    "method,foreign",
    [
        ("rs", ["--iterations", "-5", "--replicas", "0", "--node-limit", "-1"]),
        ("da", ["--iterations", "10", "--budget", "0", "--node-limit", "-1"]),
        ("exact", ["--iterations", "-5", "--budget", "0"]),
        ("bnb", ["--iterations", "-5", "--budget", "0", "--mode", "single"]),
    ],
)
def test_solve_reads_only_its_own_method_options(inst_path, capsys, method, foreign):
    assert main(["solve", inst_path, "--method", method, *foreign]) == 0
    assert json.loads(capsys.readouterr().out)["f_beta"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--method", "da", "--iterations", "-5"], "--iterations: must be at least 0, got -5"),
        (["solve", "--method", "da", "--replicas", "0"], "--replicas: must be at least 1, got 0"),
        (["solve", "--method", "rs", "--budget", "0"], "--budget: must be at least 1, got 0"),
        (["solve", "--method", "bnb", "--node-limit", "-3"], "--node-limit: must be at least 0, got -3"),
        (["bench", "--methods", "rs,da", "--iterations", "-1"], "--iterations: must be at least 0, got -1"),
        (["bench", "--methods", "rs", "--budget", "-2"], "--budget: must be at least 1, got -2"),
        (["bench", "--methods", "da,bnb", "--node-limit", "-1"], "--node-limit: must be at least 0, got -1"),
    ],
)
def test_an_out_of_range_budget_is_a_usage_error(inst_path, tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        main([argv[0], inst_path, *argv[1:], "-o", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(f"usage: rwap {argv[0]} ")
    assert captured.err.endswith(f"rwap {argv[0]}: error: argument {message}\n")


def test_solve_json_shows_mixed_wavelength_grants(tmp_path, capsys):
    # the working path exists only on wavelength 0, the protection path only on 1
    net = Network(node_count=2, links=((0, 1), (0, 1)))
    req = Request(id=0, source=0, destination=1, working=(Lightpath((0,), 0),), protection=(Lightpath((1,), 1),))
    path, out = tmp_path / "mixed.json", tmp_path / "solution.json"
    save_instance(Instance(network=net, wavelength_count=2, requests=(req,)), str(path))
    assert main(["solve", str(path), "--method", "rs", "--budget", "1", "-o", str(out)]) == 0
    assert '"mixed_wavelength_grants": 1' in out.read_text()


def test_solve_trace_written(inst_path, tmp_path):
    trace = tmp_path / "trace.csv"
    rc = main(
        ["solve", inst_path, "--method", "da", "--iterations", "300", "--trace", str(trace)]
    )
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,best_energy"
    energies = [int(line.split(",")[1]) for line in lines[1:]]
    assert energies == sorted(energies, reverse=True)


@pytest.mark.parametrize("method", ["rs", "bnb", "exact"])
def test_trace_is_refused_for_a_method_without_one(inst_path, tmp_path, capsys, method):
    trace = tmp_path / "trace.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", inst_path, "--method", method, "--trace", str(trace)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not trace.exists()
    message = f"argument --trace: only the da method writes a trace, not {method}"
    assert captured.err.endswith(f"rwap solve: error: {message}\n")


def test_verify_command(inst_path, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"bits": "1001110"}))
    assert main(["verify", inst_path, str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bits": "0010100"}))  # c3 pair both set
    assert main(["verify", inst_path, str(bad)]) == 1
    out = capsys.readouterr().out
    assert "c3" in out


def test_verify_rejects_wrong_length_solution(inst_path, tmp_path, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"bits": "1"}))
    assert main(["verify", inst_path, str(short)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solution has 1 bits, instance has 7 variables" in captured.err


def test_reduce_mss_command(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": 3, "edges": [[0, 1], [1, 2]]}))
    out = tmp_path / "reduced.json"
    assert main(["reduce-mss", str(graph), "-o", str(out)]) == 0
    inst = load_instance(str(out))
    assert inst.n_vars == 6 and inst.wavelength_count == 1


def test_bench_csv(inst_path, tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            inst_path,
            "--methods",
            "rs,exact",
            "--seeds",
            "0,1",
            "--budget",
            "3",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# rwap-bench-v1")
    header = lines[1].split(",")
    assert header[:4] == ["instance", "method", "seed", "rho"]
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    per_seed = [r for r in rows if r["instance"] != "AGGREGATE"]
    assert len(per_seed) == 4  # two methods, two seeds
    assert all(r["error"] == "" and r["feasible"] == "1" for r in per_seed)
    aggregates = [r for r in rows if r["instance"] == "AGGREGATE"]
    assert {r["method"] for r in aggregates} == {"rs", "exact"}


def test_bench_csv_quotes_labels_with_commas(tmp_path):
    path = tmp_path / "a,b.json"
    save_instance(figure1_instance(), str(path))
    out = tmp_path / "bench.csv"
    assert main(["bench", str(path), "--methods", "rs", "--budget", "2", "-o", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()[1:]))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 3  # header, one run, one aggregate
    assert rows[1][0] == str(path)


def test_bench_csv_plain_row_bytes():
    row = dict.fromkeys(CSV_COLUMNS, "") | {"instance": "x.json", "method": "rs", "seed": 0, "wall_time_s": 0.5}
    assert rows_to_csv([row]).splitlines(keepends=True)[1:] == [",".join(CSV_COLUMNS) + "\n", "x.json,rs,0,,,,,,,,,0.5,\n"]


def test_bench_rho_sweep_aggregates(inst_path, capsys):
    rc = main(
        ["bench", inst_path, "--methods", "da", "--seeds", "0", "--iterations", "400",
         "--rho-sweep", "100,1000"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    aggregates = [r for r in rows if r["instance"] == "AGGREGATE"]
    assert len(aggregates) == 2  # one aggregate row per penalty coefficient
    assert {r["rho"] for r in aggregates} == {"111", "1011"}  # beta 11 plus offsets


def test_bench_empty_instance_list(tmp_path, capsys):
    rc = main(["bench", "--methods", "rs"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("instance,method,seed")
    assert len(out.splitlines()) == 2  # header comment + column row only


@pytest.mark.parametrize("method", ["da", "rs", "exact", "bnb"])
def test_bench_row_matches_solve(tmp_path, capsys, method):
    path = str(tmp_path / "generated.json")
    gen = ["gen", "--topology", "synth:8,1.6", "--wavelengths", "2", "--requests", "3", "--paths", "1"]
    assert main(gen + ["--seed", "4", "-o", path]) == 0
    options = ["--iterations", "300", "--budget", "3", "--node-limit", "20"]
    capsys.readouterr()
    assert main(["solve", path, "--method", method, "--seed", "2", *options]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert main(["bench", path, "--methods", method, "--seeds", "2", *options]) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert row["error"] == "" and solved["f_beta"] > 0
    expected = [str(int(solved[k])) for k in ("f_beta", "f_alpha", "objective", "feasible", "repaired")]
    assert [row[k] for k in ("granted", "links", "objective", "feasible", "repaired")] == expected


@pytest.mark.parametrize("option", ["--seeds", "--rho-sweep"])
@pytest.mark.parametrize("value", ["1,x", "1,", "1.5"])
def test_bench_names_a_malformed_integer_list(inst_path, capsys, option, value):
    assert main(["bench", inst_path, "--methods", "da", option, value]) == 2
    assert _error_line(capsys) == f"error: argument {option}: expected comma-separated integers, got {value!r}\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gen", "--topology", "synth:8,1.6", "--wavelengths", "1", "--requests", "2", "--paths", "1", "--seed", "-1"],
         "--seed"),
        (["solve", "INST", "--method", "da", "--seed", "-1"], "--seed"),
        (["solve", "INST", "--method", "rs", "--seed", "-1"], "--seed"),
        (["bench", "INST", "--methods", "da,rs", "--seeds=-1"], "--seeds"),
        (["bench", "INST", "--methods", "da,rs", "--seeds=0,-1"], "--seeds"),
    ],
)
def test_a_negative_seed_is_named(inst_path, tmp_path, capsys, argv, option):
    out = tmp_path / "out.json"
    assert main([inst_path if a == "INST" else a for a in argv] + ["-o", str(out)]) == 2
    assert _error_line(capsys) == f"error: argument {option}: must be non-negative, got -1\n"
    assert not out.exists()


def test_bench_records_an_unknown_method(inst_path, capsys):
    assert main(["bench", inst_path, "--methods", "nope"]) == 1
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert row["error"] == "ValueError: unknown method 'nope'"


def test_bench_records_row_errors_and_continues(tmp_path, capsys):
    # enumeration cap exceeded for "exact": its rows fail, others complete
    big = tmp_path / "big.json"
    rc = main(
        ["gen", "--topology", "synth:10,1.8", "--wavelengths", "2", "--requests", "4",
         "--paths", "2", "--seed", "1", "-o", str(big)]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["bench", str(big), "--methods", "exact,rs", "--budget", "2"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    exact_rows = [r for r in rows if r["method"] == "exact" and r["instance"] != "AGGREGATE"]
    assert all("EnumerationLimitError" in r["error"] for r in exact_rows)
    rs_rows = [r for r in rows if r["method"] == "rs" and r["instance"] != "AGGREGATE"]
    assert all(r["error"] == "" for r in rs_rows)


@pytest.mark.parametrize("bits", ["12", "1x", "100111a", "01x", "0 1"])
def test_verify_rejects_malformed_bits(inst_path, tmp_path, capsys, bits):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"bits": bits}))
    assert main(["verify", inst_path, str(path)]) == 2
    assert _error_line(capsys) == f"error: solution bits must be a string of 0s and 1s, got {bits!r}\n"


@pytest.mark.parametrize(
    "instance_text, solution_text",
    [
        (None, "not json"),
        (None, json.dumps({"bitz": "1"})),
        (None, json.dumps({"bits": 5})),
        (None, None),  # no solution file
        (json.dumps({"nodes": 2}), json.dumps({"bits": "1"})),
    ],
)
def test_verify_rejects_unreadable_documents(inst_path, tmp_path, capsys, instance_text, solution_text):
    if instance_text is not None:
        inst_path = tmp_path / "broken.json"
        inst_path.write_text(instance_text)
    solution = tmp_path / "solution.json"
    if solution_text is not None:
        solution.write_text(solution_text)
    assert main(["verify", str(inst_path), str(solution)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_reports_an_oversized_conflict_key(tmp_path, capsys):
    inst_path, solution = tmp_path / "inst.json", tmp_path / "solution.json"
    save_instance(parallel_link_requests(40_000, shared=True), str(inst_path))
    solution.write_text(json.dumps({"bits": "0" * 40_000}))
    assert main(["verify", str(inst_path), str(solution)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "1.36e9" in captured.err


def _output_commands(inst_path, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]]}))
    return {
        "gen": ["gen", "--topology", "synth:8,1.6", "--wavelengths", "1", "--requests", "2", "--paths", "1"],
        "reduce-mss": ["reduce-mss", str(graph)],
        "solve": ["solve", inst_path, "--method", "bnb"],
        "bench": ["bench", inst_path, "--methods", "rs", "--budget", "2"],
        "export-lp": ["export-lp", inst_path],
        "export-qubo": ["export-qubo", inst_path],
    }


@pytest.mark.parametrize("command", ["gen", "reduce-mss", "solve", "bench", "export-lp", "export-qubo"])
def test_failed_write_leaves_the_previous_file(inst_path, tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "out.txt"
    out.write_text("previous\n")
    argv = _output_commands(inst_path, tmp_path)[command] + ["-o", str(out)]
    before = sorted(p.name for p in tmp_path.iterdir())

    def fail(*args):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    assert main(argv) == 2
    assert _error_line(capsys) == "error: rename failed\n"
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no temp file left


@pytest.mark.parametrize("command", ["gen", "reduce-mss", "solve", "bench", "export-lp", "export-qubo"])
def test_a_write_into_a_missing_directory_names_the_destination(inst_path, tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    argv = _output_commands(inst_path, tmp_path)[command] + ["-o", str(out)]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 2
    message = _error_line(capsys)
    assert message.startswith("error: [Errno 2] ") and f"'{out}'" in message and ".tmp'" not in message
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["gen", "reduce-mss", "solve", "bench", "export-lp", "export-qubo"])
def test_written_files_get_the_mode_of_a_plain_open(inst_path, tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    argv = _output_commands(inst_path, tmp_path)[command] + ["-o", str(out)]
    old = os.umask(0o027)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def _trace_argv(inst_path, trace):
    return ["solve", inst_path, "--method", "da", "--iterations", "50", "--trace", str(trace)]


def test_failed_trace_write_leaves_the_previous_file(inst_path, tmp_path, monkeypatch, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("previous\n")
    before = sorted(p.name for p in tmp_path.iterdir())

    def fail(*args):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    assert main(_trace_argv(inst_path, trace)) == 2
    assert _error_line(capsys) == "error: rename failed\n"
    assert trace.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no temp file left


def test_trace_file_gets_the_mode_of_a_plain_open(inst_path, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    old = os.umask(0o027)
    try:
        assert main(_trace_argv(inst_path, trace)) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(trace.stat().st_mode) == 0o640
    assert trace.read_text().splitlines()[0] == "iteration,best_energy"


def test_write_atomic_names_the_destination(tmp_path):
    out = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        write_atomic(str(out), "text")
    assert info.value.filename == str(out) and ".tmp'" not in str(info.value)


def _input_argv(command, source, out, solution):
    """The command reading source as its input document."""
    return {
        "gen": ["gen", "--topology", source, "--wavelengths", "1", "--requests", "1", "--paths", "1", "-o", out],
        "conflicts": ["conflicts", source],
        "weights": ["weights", source],
        "export-lp": ["export-lp", source, "-o", out],
        "export-qubo": ["export-qubo", source, "-o", out],
        "solve": ["solve", source, "--method", "rs", "-o", out],
        "verify": ["verify", source, solution],
        "reduce-mss": ["reduce-mss", source, "-o", out],
        "bench": ["bench", source, "-o", out],
    }[command]


def _impossible_argv(command, tmp_path, out, good):
    """The command on a well-formed input that it cannot handle: a shape the
    generator cannot build, a model past a cap, weights that do not exist."""

    def saved(name, instance):
        save_instance(instance, str(tmp_path / name))
        return str(tmp_path / name)

    if command == "gen":
        return ["gen", "--topology", "synth:4,1.5", "--wavelengths", "1", "--requests", "20", "--paths", "4", "-o", out]
    if command == "conflicts":  # past the conflict sort key's limit
        return ["conflicts", saved("huge.json", parallel_link_requests(40_000, shared=True))]
    if command in ("weights", "solve"):  # 32 variables, past the enumeration caps
        wide = saved("wide.json", generate(synth_topology(8, 1.6, 4), 2, 4, 2, 4))
        return ["weights", wide, "--tight"] if command == "weights" else ["solve", wide, "--method", "exact", "-o", out]
    if command in ("export-lp", "export-qubo"):  # no request has a protection path, so no default beta
        return [command, saved("unprotected.json", parallel_link_requests(2, shared=False)), "-o", out]
    if command == "verify":
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"bits": "1"}))
        return ["verify", good, str(short)]
    if command == "reduce-mss":
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": 2, "edges": [[1, 1]]}))
        return ["reduce-mss", str(graph), "-o", out]
    return ["bench", good, "--seeds", "1,x", "-o", out]


@pytest.mark.parametrize("case", ["missing file", "not JSON", "malformed document", "impossible shape or cap"])
@pytest.mark.parametrize(
    "command", ["gen", "conflicts", "weights", "export-lp", "export-qubo", "solve", "verify", "reduce-mss", "bench"]
)
def test_bad_input_is_one_error_line_and_exit_2(tmp_path, capsys, command, case):
    good, solution, source = tmp_path / "good.json", tmp_path / "solution.json", tmp_path / "input.json"
    save_instance(figure1_instance(), str(good))
    solution.write_text(json.dumps({"bits": "1001110"}))
    out = str(tmp_path / "out.txt")
    if case == "impossible shape or cap":
        argv = _impossible_argv(command, tmp_path, out, str(good))
    else:
        if case == "not JSON":
            source.write_text("{not json")
        elif case == "malformed document":  # no links, no requests, no edges
            source.write_text(json.dumps({"nodes": 2}))
        argv = _input_argv(command, str(source), out, str(solution))
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 2
    line = _error_line(capsys)
    if case == "not JSON":  # a syntax error names the file it is in
        assert str(source) in line
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no output file, no temp file


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{"])
def test_verify_names_the_broken_solution_file(tmp_path, capsys, content):
    good, broken = tmp_path / "good.json", tmp_path / "broken.json"
    save_instance(figure1_instance(), str(good))
    broken.write_bytes(content)
    assert main(["verify", str(good), str(broken)]) == 2
    line = _error_line(capsys)
    assert line.startswith(f"error: {broken}: ") and str(good) not in line


@pytest.mark.parametrize("part, doc", [
    ("network", {"nodes": 2}),
    ("instance", _figure1_doc(lambda doc: doc.update(wavelengths="x"))),
])
def test_bench_names_the_malformed_file(tmp_path, capsys, part, doc):
    good, broken, out = tmp_path / "good.json", tmp_path / "malformed.json", tmp_path / "out.csv"
    save_instance(figure1_instance(), str(good))
    broken.write_text(json.dumps(doc))
    assert main(["bench", str(good), str(broken), "--methods", "rs", "-o", str(out)]) == 2
    line = _error_line(capsys)
    assert line.startswith(f"error: malformed {part} document: ") and line.endswith(f", in {broken}\n")
    assert str(good) not in line and not out.exists()


@pytest.mark.parametrize("doc", [
    {"nodes": 2.9, "edges": [["0", 1.7]]},
    {"nodes": 2.9, "edges": [[0, 1]]},
    {"nodes": 2, "edges": [["0", 1]]},
    {"nodes": 2, "edges": [[0, 1.7]]},
    {"nodes": True, "edges": []},
    {"nodes": 2, "edges": [[False, 1]]},
])
def test_reduce_mss_takes_only_integers(tmp_path, capsys, doc):
    graph, out = tmp_path / "graph.json", tmp_path / "out.json"
    graph.write_text(json.dumps(doc))
    assert main(["reduce-mss", str(graph), "-o", str(out)]) == 2
    assert _error_line(capsys).startswith("error: malformed graph document: ")
    assert not out.exists()
