"""Property test of the CLI contract on generated config and edge-list files.

For any config text and any edge-list text, radsgd.cli.main returns 0, 1
or 2, never raises, and writes at most one "error:" line. Values come
from small pools of valid and malformed strings for every known key;
sizes are capped (n <= 12, iterations <= 5, grid_step >= 0.25) so that
each example stays cheap. Edge-list text holds no decimal digits outside
the generated header and pairs, so no example can ask for a huge graph.
The search is derandomized so that the suite gives the same verdict on
every run.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from radsgd.cli import main

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
    "epsilon": (("auto", "0.1", "0.3"), ("0", "-0.1", "0.5", "nan", "inf", "x")),
    "iterations": (("1", "3", "5"), ("0", "-2", "many")),
    "batch_size": (("1", "2", "4"), ("0", "-1", "all")),
    "p": (("0.3", "0, 0.5, 1", "1", "-0.0"), ("-0.1", "1.5", "nan", ",", "0.1, x")),
    "replicates": (("1", "2"), ("0", "-1", "x")),
    "seed": (("0", "3"), ("-1", "x")),
    "samples_per_node": (("1", "3", "5"), ("0", "-1", "x")),
    "sigma": (("0", "0.5"), ("-1", "nan", "inf", "x")),
    "noise_cov": (("0", "0.05"), ("-1", "nan", "inf", "x")),
    "classifier_bias": (("true", "false"), ("maybe",)),
    "checkpoint_every": (("auto", "1", "2"), ("0", "-1", "x")),
    "grid_step": (("0.25", "0.5", "0.3"), ("0", "-0.1", "0.6", "nan", "x")),
    "out": (("elsewhere",), ()),  # --out always overrides it
    "plots": (("true", "false"), ("x",)),
}
# Keys most commands need are always set; the others half of the time.
CORE = ("topology", "n", "edge_prob", "graph_seed", "task", "p", "edge_list")
ODD_LINES = ("", "# a comment", "no equals sign", "bogus = 1", "n =", "= 3", "n = 3")

_no_digits = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)


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

@st.composite
def seed_flags(draw):
    value = _pick(draw, (None, "3"), ("-1", "x"))
    return [] if value is None else ["--seed", value]


ONE_NODE = "topology = edge_list\nedge_list = {edges}\ntask = regression\np = 0.3\niterations = 2\n"


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["analyze", "sweep", "train", "topology"]),
    config=config_texts(),
    edges=edge_texts,
    flags=seed_flags(),
)
@example(command="analyze", config=ONE_NODE, edges="n 1\n", flags=[])
@example(command="sweep", config=ONE_NODE, edges="n 1\n", flags=[])
@example(command="topology", config=ONE_NODE, edges="n 1\n", flags=[])
@example(command="topology", config="topology = edge_list\nedge_list = {edges}  # pinned\n",
         edges="n 3\n0 1\n1 2\n", flags=[])
# A grid step at which arange's last point lands past p = 1.
@example(command="analyze", config="topology = ring\nn = 6\ngrid_step = 0.0006\n", edges="", flags=[])
def test_cli_contract_holds_on_generated_files(command, config, edges, flags):
    with tempfile.TemporaryDirectory() as tmp:
        folder = os.path.join(tmp, "a#b")  # a "#" inside the edge_list path
        os.mkdir(folder)
        edges_path = os.path.join(folder, "edges.txt")
        with open(edges_path, "w", encoding="utf-8") as handle:
            handle.write(edges)
        config_path = os.path.join(tmp, "run.cfg")
        with open(config_path, "w", encoding="utf-8") as handle:
            handle.write(config.format(edges=edges_path, missing=os.path.join(tmp, "missing.txt"), folder=folder))
        argv = [command, "--config", config_path, "--out", os.path.join(tmp, "out"), *flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2), (code, config, stderr.getvalue())
    assert stderr.getvalue().count("error:") <= 1, stderr.getvalue()
