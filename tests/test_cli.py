"""Command line interface: exit codes, printed output, artifact files."""

import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from gathersim import checks, cli
from gathersim.checks import CheckFailure
from gathersim.cli import main
from gathersim.generate import good_config

GOOD = {"epsilon": 0.5,
        "agents": [{"x": 0.0, "y": 0.0, "t": 0.0},
                   {"x": 1.0, "y": 0.0, "t": 1.0}]}
UNGATHERABLE = {"epsilon": 0.5,
                "agents": [{"x": 0.0, "y": 0.0, "t": 0.0},
                           {"x": 9.0, "y": 0.0, "t": 0.1}]}
BOUNDARY = {"epsilon": 0.5,
            "agents": [{"x": 0.0, "y": 0.0, "t": 0.0},
                       {"x": 1.0, "y": 0.0, "t": 0.5}]}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_classify_exit_codes(tmp_path, capsys):
    assert main(["classify", write_cfg(tmp_path, GOOD)]) == 2
    assert "GOOD" in capsys.readouterr().out
    assert main(["classify", write_cfg(tmp_path, BOUNDARY)]) == 1
    assert "BAD (witness" in capsys.readouterr().out
    assert main(["classify", write_cfg(tmp_path, UNGATHERABLE)]) == 0
    assert "UNGATHERABLE" in capsys.readouterr().out


def test_classify_prints_witness(tmp_path, capsys):
    main(["classify", write_cfg(tmp_path, GOOD)])
    assert "witness 0,1" in capsys.readouterr().out


def test_classify_missing_file(tmp_path, capsys):
    code = main(["classify", str(tmp_path / "nope.json")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_classify_malformed_json_points_at_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"epsilon": 0.5,\n  "agents": [}\n')
    assert main(["classify", str(p)]) == 3
    err = capsys.readouterr().err
    assert "broken.json:2" in err
    assert '"agents": [}' in err


def test_config_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"epsilon": 0.5, "agents": []} \u00e9'.encode("latin-1"))
    assert main(["classify", str(path)]) == 3
    assert main(["simulate", str(path), "--algorithm", "dedicated",
                 "--horizon", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith(f"error: {path}: ") and "utf-8" in line
               for line in lines)


def test_infinite_start_time_is_an_input_error(tmp_path, capsys):
    # 1e400 parses as an infinite float.
    path = tmp_path / "inf.json"
    path.write_text('{"epsilon": 0.5, "agents": [{"x": 0, "y": 0, "t": 0},'
                    ' {"x": 1, "y": 0, "t": 1e400}]}')
    assert main(["classify", str(path)]) == 3
    assert main(["simulate", str(path), "--algorithm", "dedicated",
                 "--horizon", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("start times must be finite") == 2


@pytest.mark.parametrize("field,value", [("x", True), ("t", False),
                                         ("epsilon", "0.5")])
def test_config_value_that_is_not_a_number_is_an_input_error(
        tmp_path, capsys, field, value):
    data = json.loads(json.dumps(GOOD))
    if field == "epsilon":
        data[field] = value
    else:
        data["agents"][0][field] = value
    assert main(["classify", write_cfg(tmp_path, data)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed configuration" in captured.err


def test_simulate_gathered(tmp_path, capsys):
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-n"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("GATHERED at ")


def test_simulate_split(tmp_path, capsys):
    code = main(["simulate", write_cfg(tmp_path, UNGATHERABLE),
                 "--algorithm", "dedicated", "--horizon", "60"])
    assert code == 1
    assert "SPLIT" in capsys.readouterr().out


def test_simulate_timeout(tmp_path, capsys):
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-n", "--horizon", "2.0"])
    assert code == 2
    assert "TIMEOUT" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["nan", "-5", "0", "inf"])
def test_simulate_rejects_bad_horizon(tmp_path, capsys, horizon):
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-n", "--horizon", horizon])
    assert code == 3
    assert "horizon must be finite and positive" in capsys.readouterr().err


def test_simulate_names_a_default_horizon_that_is_not_finite(tmp_path,
                                                             capsys):
    # The starts are finite, but 50 times their distance overflows.
    far = {"epsilon": 0.5,
           "agents": [{"x": 0.0, "y": 0.0, "t": 0.0},
                      {"x": 1e308, "y": -1e308, "t": 0.0}]}
    code = main(["simulate", write_cfg(tmp_path, far),
                 "--algorithm", "gather-n"])
    assert code == 3
    err = capsys.readouterr().err
    assert "default horizon" in err and "--horizon" in err


@pytest.mark.parametrize("horizon", ["nan", "-5"])
def test_sweep_rejects_bad_horizon(capsys, horizon):
    argv = ["sweep", "--n", "3", "--count", "2", "--seed", "1",
            "--class", "good", "--algorithm", "gather-n",
            "--horizon", horizon]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "horizon must be finite and positive" in captured.err
    assert "invariant violations" not in captured.out


def test_simulate_gather_a_requires_set(tmp_path, capsys):
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-a"])
    assert code == 3
    assert "assumption" in capsys.readouterr().err


def test_simulate_trace_and_svg(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    svg_path = tmp_path / "run.svg"
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-n",
                 "--trace", str(trace_path), "--svg", str(svg_path)])
    assert code == 0
    lines = trace_path.read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "appear"
    assert kinds[-1] == "verdict"
    assert any(k == "ga" for k in kinds)
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 2
    assert len(root.findall(".//s:circle", ns)) >= 1


@pytest.mark.parametrize("flag", ["--trace", "--svg"])
def test_simulate_unwritable_artifact_is_an_input_error(tmp_path, capsys,
                                                        flag):
    path = tmp_path / "missing" / "run.out"
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-n", flag, str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "No such file or directory" in err
    assert not path.parent.exists()


def _fails_the_audit(cfg, trace):
    raise CheckFailure("agent 1 segment at speed 2.0")


def test_simulate_exits_4_on_a_trace_that_fails_the_audit(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_all", _fails_the_audit)
    trace_path = tmp_path / "run.jsonl"
    code = main(["simulate", write_cfg(tmp_path, GOOD),
                 "--algorithm", "gather-n", "--trace", str(trace_path)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: trace fails the audit: "
                            "agent 1 segment at speed 2.0\n")
    # The trace is written before the audit, so the failure can be read.
    assert json.loads(
        trace_path.read_text().splitlines()[-1])["kind"] == "verdict"


def test_simulate_far_from_the_origin_fails_the_audit(tmp_path, capsys):
    # 1e8 from the origin the float spacing, 1.5e-8, exceeds the engine's
    # absolute distance slacks, and this run records a GA whose group
    # check_all finds not proximity-connected.  When far runs are mended,
    # this run passes and the test needs another failing run.
    cfg = good_config(0, 4)
    far = {"epsilon": cfg.epsilon,
           "agents": [{"x": p.x + 1e8, "y": p.y, "t": t}
                      for p, t in zip(cfg.starts, cfg.times)]}
    code = main(["simulate", write_cfg(tmp_path, far),
                 "--algorithm", "gather-n"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trace fails the audit: GA at ")


def test_counterexample_whose_cluster_fails_the_audit_is_a_bug(
        tmp_path, monkeypatch):
    # build_dependent_counterexample imports check_all when it is called.
    monkeypatch.setattr(checks, "check_all", _fails_the_audit)
    out = tmp_path / "cx.json"
    with pytest.raises(RuntimeError, match="fails the audit: agent 1 "
                       "segment at speed 2.0; this indicates a bug"):
        main(["counterexample", "--set", "2,4", "--epsilon", "0.5",
              "--out", str(out)])
    assert not out.exists()


def test_check_independence_exit_codes(capsys):
    assert main(["check-independence", "3,4,5"]) == 0
    assert "INDEPENDENT" in capsys.readouterr().out
    assert main(["check-independence", "2,3,7"]) == 1
    out = capsys.readouterr().out
    assert "DEPENDENT" in out and "7 = " in out


def test_check_independence_rejects_garbage(capsys):
    assert main(["check-independence", "3,2"]) == 3
    assert capsys.readouterr().err


def test_counterexample_writes_config(tmp_path, capsys):
    out = tmp_path / "cx.json"
    code = main(["counterexample", "--set", "2,4",
                 "--epsilon", "0.5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        "DEPENDENT: 4 = 2\u00b72\n"
        f"wrote 4 agents in clusters of 2,2 to {out}\n")
    data = json.loads(out.read_text())
    assert len(data["agents"]) == 4
    assert main(["classify", str(out)]) == 2


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
def test_counterexample_rejects_bad_epsilon(tmp_path, capsys, epsilon):
    out = tmp_path / "cx.json"
    code = main(["counterexample", "--set", "2,4",
                 "--epsilon", epsilon, "--out", str(out)])
    assert code == 3
    assert "--epsilon must be finite and positive" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon, cause", [("10", "too large"),
                                            ("1e-9", "too small")])
def test_counterexample_epsilon_it_cannot_serve_is_an_input_error(
        tmp_path, capsys, epsilon, cause):
    out = tmp_path / "cx.json"
    code = main(["counterexample", "--set", "2,4",
                 "--epsilon", epsilon, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: epsilon {float(epsilon)!r} is {cause}")
    assert not out.exists()


def test_counterexample_unwritable_out_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "cx.json"
    code = main(["counterexample", "--set", "2,4",
                 "--epsilon", "0.5", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "No such file or directory" in err


def test_counterexample_independent_set_fails(tmp_path, capsys):
    code = main(["counterexample", "--set", "3,4,5",
                 "--epsilon", "0.5", "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert "independent" in capsys.readouterr().err


def test_sweep_summary_and_determinism(capsys):
    argv = ["sweep", "--n", "2", "--count", "4", "--seed", "9",
            "--class", "good", "--algorithm", "gather-n"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "gather rate 1.00 (4/4)" in first
    assert "invariant violations 0" in first


def test_sweep_parallel_matches_serial(capsys):
    base = ["sweep", "--n", "3", "--count", "3", "--seed", "5",
            "--class", "good", "--algorithm", "gather-n"]
    assert main(base) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the sweep's process pool for one that records its size, starts
    no process and maps in the calling process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_bad_jobs(capsys, pool_sizes, jobs):
    argv = ["sweep", "--n", "2", "--count", "2", "--seed", "1",
            "--class", "good", "--algorithm", "gather-n", "--jobs", jobs]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "--jobs must be at least 1" in captured.err
    assert "invariant violations" not in captured.out
    assert pool_sizes == []


def test_sweep_pool_never_exceeds_count(capsys, pool_sizes):
    base = ["sweep", "--n", "2", "--count", "2", "--seed", "1",
            "--class", "good", "--algorithm", "gather-n"]
    assert main(base) == 0
    serial = capsys.readouterr().out
    assert main(base + ["--jobs", "64"]) == 0
    assert capsys.readouterr().out == serial
    assert pool_sizes == [2]
    one = ["sweep", "--n", "2", "--count", "1", "--seed", "1",
           "--class", "good", "--algorithm", "gather-n", "--jobs", "8"]
    assert main(one) == 0
    assert pool_sizes == [2]  # a single run needs no pool


def test_sweep_ungatherable_has_no_gas(capsys):
    argv = ["sweep", "--n", "2", "--count", "3", "--seed", "2",
            "--class", "ungatherable", "--algorithm", "gather-n",
            "--horizon", "40"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "ga=0" in out


def test_sweep_rejects_bad_class_with_large_n(capsys):
    argv = ["sweep", "--n", "3", "--count", "1", "--seed", "1",
            "--class", "bad", "--algorithm", "dedicated"]
    assert main(argv) == 3


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gathersim", "check-independence", "2,4"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "DEPENDENT" in proc.stdout


def test_demo_gather_creates_outdir(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    outdir = tmp_path / "fresh" / "nested"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_gather.py"),
         "--seed", "7", "--n", "3", "--outdir", str(outdir)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: gathered" in proc.stdout
    trace_lines = (outdir / "gather_seed7_n3.jsonl").read_text().splitlines()
    assert json.loads(trace_lines[-1])["verdict"] == "gathered"
    ET.parse(outdir / "gather_seed7_n3.svg")
