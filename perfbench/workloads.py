"""The benchmark's workloads: one radsgd CLI command on a generated config each.

Every workload is a single closed-loop caller: the next command starts only
after the previous one has finished. The seed given on the benchmark's
command line becomes the config's ``seed`` and, for random graphs, its
``graph_seed``; the program sees nothing but the generated config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Seed at which the golden references under golden/ were recorded.
GOLDEN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # radsgd subcommand: "sweep" or "analyze"
    keys: dict  # config keys except seed and graph_seed
    # Overrides that shrink the workload for the smoke test.
    smoke: dict = field(default_factory=dict)

    @property
    def random_graph(self) -> bool:
        return self.keys["topology"] == "erdos_renyi"

    def settings(self, smoke: bool = False) -> dict:
        return dict(self.keys, **(self.smoke if smoke else {}))

    def config_text(self, seed: int, smoke: bool = False) -> str:
        keys = self.settings(smoke)
        keys["seed"] = seed
        if self.random_graph:
            keys["graph_seed"] = seed
        return "".join(f"{key} = {value}\n" for key, value in keys.items())

    def probabilities(self, smoke: bool = False) -> list[float]:
        return [float(p) for p in str(self.settings(smoke)["p"]).split(",")]

    def cells(self, smoke: bool = False) -> int:
        return len(self.probabilities(smoke)) * int(self.settings(smoke)["replicates"])

    def iterations(self, smoke: bool = False) -> int:
        return int(self.settings(smoke)["iterations"])

    def checkpoints(self, smoke: bool = False) -> list[int]:
        """Iterations at which sweep.csv has a row for every cell."""
        keys = self.settings(smoke)
        total = int(keys["iterations"])
        every = keys.get("checkpoint_every")
        every = int(every) if every is not None else (1 if total <= 1000 else 10)
        return [t for t in range(1, total + 1) if t % every == 0 or t == total]


WORKLOADS = {
    w.name: w
    for w in (
        # The headline classification sweep (acceptance test c07 and the
        # ROADMAP's slowest command), scaled down: per-node softmax
        # gradients dominate, dense mixing of a 20-node graph is cheap.
        Workload(
            name="sweep_cls_er20",
            command="sweep",
            keys={
                "topology": "erdos_renyi", "n": 20, "edge_prob": 0.3,
                "task": "classification", "eta": 0.01, "iterations": 200,
                "p": "0, 0.1684, 0.5, 1", "replicates": 1, "checkpoint_every": 50,
            },
            smoke={"iterations": 20, "checkpoint_every": 10},
        ),
        # Scalar regression on 400 nodes: gradients are trivial, so the n^2
        # per-slot channel and mixing arrays and the dense w @ half dominate.
        Workload(
            name="sweep_reg_er400",
            command="sweep",
            keys={
                "topology": "erdos_renyi", "n": 400, "edge_prob": 0.025,
                "task": "regression", "eta": 0.01, "iterations": 80,
                "p": "0.1, 0.5", "replicates": 1, "checkpoint_every": 50,
            },
            smoke={"n": 100, "edge_prob": 0.1, "iterations": 10, "checkpoint_every": 5},
        ),
        # The spectral analyzer: one eigen-solve per grid point plus the
        # golden-section refinement; it never trains.
        Workload(
            name="analyze_er100",
            command="analyze",
            keys={
                "topology": "erdos_renyi", "n": 100, "edge_prob": 0.1,
                "grid_step": 0.004,
            },
            smoke={"n": 20, "edge_prob": 0.3, "grid_step": 0.05},
        ),
    )
}
