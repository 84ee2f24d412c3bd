"""Property test of the CLI contract on generated config and edge-list files.

For any config text and any edge-list text, radsgd.cli.main returns 0, 1
or 2, never raises, and writes at most one "error:" line. Values come
from small pools of valid and malformed strings for every known key;
sizes are capped (n <= 12, iterations <= 5, grid_step >= 0.25) so that
each example stays cheap. Edge-list text holds no decimal digits outside
the generated header and pairs, so no example can ask for a huge graph.
The search is derandomized so that the suite gives the same verdict on
every run.

Exit 2 is the contract for a real run-time failure, so the contract test
also passes a valid config that fails at run time. A second property
draws only configs known to be valid (analyze on connected graphs with
n <= 12 and grid_step >= 0.0005, and tiny train runs) and requires exit 0
and complete outputs. A third draws the command line itself from a pool
of commands, flags, their prefixes and "--flag=value" forms, help flags,
stray tokens and values, around a tiny valid config or a missing one, and
requires the same contract.
"""

import contextlib
import csv
import io
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from radsgd.cli import main
from radsgd.experiments import _SCHEMA

# Per key: values the parser accepts (some still fail at run time, such as
# a diverging eta or a graph too sparse to sample), then malformed ones.
VALUES = {
    "topology": (("ring", "complete", "erdos_renyi", "edge_list"), ("torus",)),
    "n": (("2", "3", "5", "12"), ("1", "0", "-4", "ten", "3.0")),
    "edge_prob": (("0.3", "0.5", "1", "1e-300"), ("0", "1.5", "nan", "p")),
    "graph_seed": (("0", "7"), ("-1", "seed")),
    "edge_list": (("{edges}", "{edges}  # pinned graph"), ("{missing}", "{folder}")),
    "task": (("regression", "classification"), ("svm",)),
    "eta": (("0.01", "0", "1e12"), ("-1", "nan", "inf", "fast")),
    "epsilon": (("0.1", "0.3"), ("0", "-0.1", "0.5", "nan", "inf", "x", "auto")),
    "iterations": (("1", "3", "5"), ("0", "-2", "many")),
    "batch_size": (("1", "2", "4"), ("0", "-1", "all")),
    "p": (("0.3", "0, 0.5, 1", "1", "-0.0"), ("-0.1", "1.5", "nan", ",", "0.1, x", "0.5, 0.5")),
    "replicates": (("1", "2"), ("0", "-1", "x")),
    "seed": (("0", "3"), ("-1", "x")),
    "samples_per_node": (("1", "3", "5"), ("0", "-1", "x")),
    "checkpoint_every": (("1", "2"), ("0", "-1", "x", "auto")),
    "grid_step": (("0.25", "0.5", "0.3"), ("0", "-0.1", "0.6", "nan", "x")),
    "plots": (("true", "false"), ("x",)),
}
# Keys most commands need are always set; the others half of the time.
CORE = ("topology", "n", "edge_prob", "graph_seed", "task", "p", "edge_list")
ODD_LINES = ("", "# a comment", "no equals sign", "bogus = 1", "n =", "= 3", "n = 3")

_no_digits = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)


def test_values_pool_lists_every_config_key():
    assert sorted(VALUES) == sorted(_SCHEMA)


def _pick(draw, valid, malformed):
    """A valid value, or one time in 32 a malformed one."""
    broken = bool(malformed) and all(draw(st.booleans()) for _ in range(5))
    return draw(st.sampled_from(malformed if broken else valid))


@st.composite
def config_texts(draw):
    lines = []
    for key, (valid, malformed) in VALUES.items():
        if key in CORE or draw(st.booleans()):
            lines.append(f"{key} = {_pick(draw, valid, malformed)}")
    lines += draw(st.lists(st.sampled_from(ODD_LINES), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


edge_texts = st.builds(
    lambda header, body: "\n".join([header, *body]) + "\n",
    st.one_of(st.integers(-1, 12).map(lambda k: f"n {k}"), st.sampled_from(["", "n", "n x", "m 3"])),
    st.lists(
        st.one_of(
            st.tuples(st.integers(-1, 13), st.integers(-1, 13)).map(lambda uv: f"{uv[0]} {uv[1]}"),
            st.sampled_from(["", "# comment", "0", "0 1 2", "a b", "n 3"]),
            _no_digits,
        ),
        max_size=30,
    ),
)

ONE_NODE = "topology = edge_list\nedge_list = {edges}\ntask = regression\np = 0.3\niterations = 2\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["analyze", "sweep", "train", "topology"]),
    config=config_texts(),
    edges=edge_texts,
)
@example(command="analyze", config=ONE_NODE, edges="n 1\n")
@example(command="sweep", config=ONE_NODE, edges="n 1\n")
@example(command="topology", config=ONE_NODE, edges="n 1\n")
@example(command="topology", config="topology = edge_list\nedge_list = {edges}  # pinned\n",
         edges="n 3\n0 1\n1 2\n")
# A grid step at which arange's last point lands past p = 1.
@example(command="analyze", config="topology = ring\nn = 6\ngrid_step = 0.0006\n", edges="")
def test_cli_contract_holds_on_generated_files(command, config, edges):
    with tempfile.TemporaryDirectory() as tmp:
        folder = os.path.join(tmp, "a#b")  # a "#" inside the edge_list path
        os.mkdir(folder)
        edges_path = os.path.join(folder, "edges.txt")
        with open(edges_path, "w", encoding="utf-8") as handle:
            handle.write(edges)
        config_path = os.path.join(tmp, "run.cfg")
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write(config.format(edges=edges_path, missing=os.path.join(tmp, "missing.txt"), folder=folder))
        argv = [command, "--config", config_path, "--out", os.path.join(tmp, "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2), (code, config, stderr.getvalue())
    assert stderr.getvalue().count("error:") <= 1, stderr.getvalue()


# Valid for every command. One p and one replicate make one run, so
# --parallel never starts a pool.
TINY = "topology = ring\nn = 3\ntask = regression\np = 0.3\niterations = 2\nsamples_per_node = 3\ngrid_step = 0.25\n"
COMMANDS = ("analyze", "sweep", "train", "topology")
# Single tokens, and flag-value pairs so that many examples get to run.
ARGV_UNITS = (
    *COMMANDS, "frobnicate",
    "--config", "--conf", "--c", "--out", "--o", "--parallel", "--par", "--p", "--help", "--h", "-h",
    "--config={config}", "--config={missing}", "--out={out}", "--parallel=2", "--parallel=0", "--help=x",
    "{config}", "{missing}", "{out}", "0", "x", "2", "stray", "-", "--", "", "--bogus", "-x",
    "--config {config}", "--conf {config}", "--c {missing}", "--out {out}", "--o {out}", "--parallel 2", "--par x",
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    head=st.sampled_from(COMMANDS + ("frobnicate", "-h")),
    tail=st.lists(st.sampled_from(ARGV_UNITS), max_size=5),
)
@example(head="sweep", tail=["--config", "{config}", "--out", "{out}"])
@example(head="sweep", tail=["--c={config}", "--par", "2", "--o", "{out}"])
def test_cli_contract_holds_on_generated_argv(head, tail):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"config": os.path.join(tmp, "run.cfg"), "missing": os.path.join(tmp, "missing.cfg"),
                 "out": os.path.join(tmp, "out")}
        with open(paths["config"], "w", encoding="utf-8") as handle:
            handle.write(TINY)
        argv = [head, *(token.format(**paths) for unit in tail for token in unit.split(" "))]
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a command without --out writes into "."
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (code, argv, stderr.getvalue())
    assert stderr.getvalue().count("error:") <= 1, (argv, stderr.getvalue())


@st.composite
def connected_edge_lists(draw):
    """A random spanning tree over n <= 12 nodes plus random extra edges."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    return "\n".join([f"n {n}", *(f"{u} {v}" for u, v in sorted(edges))]) + "\n"


# (config lines, edge-list text) pairs.
analyze_graphs = st.one_of(
    st.integers(3, 12).map(lambda n: (f"topology = ring\nn = {n}\n", "")),
    st.integers(2, 12).map(lambda n: (f"topology = complete\nn = {n}\n", "")),
    connected_edge_lists().map(lambda edges: ("topology = edge_list\nedge_list = {edges}\n", edges)),
)


def _run(command, config, edges=""):
    with tempfile.TemporaryDirectory() as tmp:
        edges_path = os.path.join(tmp, "edges.txt")
        with open(edges_path, "w", encoding="utf-8") as handle:
            handle.write(edges)
        config_path = os.path.join(tmp, "run.cfg")
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write(config.format(edges=edges_path))
        out = os.path.join(tmp, "out")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", config_path, "--out", out])
        assert code == 0, (config, edges, stderr.getvalue())
        with open(os.path.join(out, f"{command}.csv"), encoding="utf-8", newline="") as handle:
            return list(csv.DictReader(handle))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=analyze_graphs, grid_step=st.floats(0.0005, 0.5))
@example(graph=("topology = ring\nn = 6\n", ""), grid_step=0.0006)
def test_valid_analyze_configs_exit_zero_with_the_whole_grid(graph, grid_step):
    config, edges = graph
    rows = _run("analyze", config + f"grid_step = {grid_step!r}\n", edges)
    p = np.array([float(row["p"]) for row in rows])
    # One row per grid point 0, step, 2 step, ... up to the last one within
    # half a step of 1; a last point past 1 is clamped to exactly 1.
    last = (len(p) - 1) * grid_step
    assert abs(last - 1.0) <= grid_step / 2 * (1 + 1e-9)
    np.testing.assert_allclose(p[:-1], grid_step * np.arange(len(p) - 1), rtol=1e-9, atol=1e-12)
    assert p[0] == 0.0 and p[-1] <= 1.0
    if last > 1.0 + 1e-9:
        assert p[-1] == 1.0
    else:
        np.testing.assert_allclose(p[-1], last, rtol=1e-9)
    for row in rows:
        assert np.isfinite(float(row["expected_throughput"])) and 0.0 <= float(row["consensus_rate"]) <= 1.0


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    topology=st.sampled_from(["ring", "complete"]),
    nodes=st.sampled_from([4, 8]),
    task=st.sampled_from(["regression", "classification"]),
    p=st.floats(0.0, 1.0),
    iterations=st.integers(1, 5),
    batch_size=st.sampled_from([None, 1, 2, 5]),
    checkpoint_every=st.sampled_from([None, 1, 2]),
)
def test_valid_train_configs_exit_zero(topology, nodes, task, p, iterations, batch_size, checkpoint_every):
    lines = [f"topology = {topology}", f"n = {nodes}", f"task = {task}", f"p = {p!r}",
             f"iterations = {iterations}", "samples_per_node = 3"]
    if batch_size is not None:
        lines.append(f"batch_size = {batch_size}")
    if checkpoint_every is not None:
        lines.append(f"checkpoint_every = {checkpoint_every}")
    rows = _run("train", "\n".join(lines) + "\n")
    every = checkpoint_every or 1
    want = [t for t in range(1, iterations + 1) if t % every == 0 or t == iterations]
    assert [int(row["iteration"]) for row in rows] == want
    for row in rows:
        assert np.isfinite(float(row["avg_test_loss"])) and float(row["consensus_distance"]) >= 0.0
        assert (row["accuracy"] == "") == (task == "regression")
