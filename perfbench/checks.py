"""Output checks: golden references at the golden seed and invariants at any seed.

Each check is a (name, ok, detail) triple; every failed one counts as a
failed operation. The invariants use numpy alone and the documented
formulas, never radsgd.
"""

from __future__ import annotations

import csv
import json
import os
import re

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# Later batching may reorder sums, so goldens match to a relative tolerance.
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12

SWEEP_HEADER = ["p", "replicate", "iteration", "avg_test_loss", "accuracy", "consensus_distance"]
ANALYZE_HEADER = ["p", "expected_throughput", "consensus_rate"]
# Acceptance criterion c03: on graphs without pendant nodes the two optima
# lie within 0.05 of each other.
MAX_GAP = 0.05
RATE_ATOL = 1e-9


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def final_losses(sweep_csv: str) -> dict[str, float]:
    """Last avg_test_loss of every (p, replicate) cell, keyed "p,replicate"."""
    _, rows = read_csv(sweep_csv)
    last = {}
    for row in rows:
        last[f"{row[0]},{row[1]}"] = float(row[3])
    return last


def golden_path(workload: str, command: str) -> str:
    suffix = "final_losses.json" if command == "sweep" else "analyze.csv"
    return os.path.join(GOLDEN_DIR, f"{workload}.{suffix}")


def write_golden(workload: str, command: str, out_dir: str):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    target = golden_path(workload, command)
    if command == "sweep":
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(final_losses(os.path.join(out_dir, "sweep.csv")), handle, indent=1, sort_keys=True)
            handle.write("\n")
    else:
        with open(os.path.join(out_dir, "analyze.csv"), encoding="utf-8") as src, \
                open(target, "w", encoding="utf-8") as dst:
            dst.write(src.read())


def golden_checks(workload: str, command: str, out_dir: str) -> list:
    target = golden_path(workload, command)
    if command == "sweep":
        with open(target, encoding="utf-8") as handle:
            want = json.load(handle)
        got = final_losses(os.path.join(out_dir, "sweep.csv"))
        keys_ok = sorted(got) == sorted(want)
        worst = max(
            (abs(got[k] - want[k]) / max(abs(want[k]), 1e-300) for k in want if k in got),
            default=0.0,
        )
        ok = keys_ok and all(
            np.isclose(got[k], want[k], rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL) for k in want
        )
        return [("golden final losses", ok, f"{len(want)} cells, keys match={keys_ok}, max rel diff {worst:.2e}")]
    want_header, want_rows = read_csv(target)
    got_header, got_rows = read_csv(os.path.join(out_dir, "analyze.csv"))
    shape_ok = got_header == want_header and len(got_rows) == len(want_rows)
    ok = shape_ok and np.allclose(
        np.array(got_rows, dtype=float), np.array(want_rows, dtype=float),
        rtol=GOLDEN_RTOL, atol=GOLDEN_ATOL,
    )
    return [("golden analyze.csv", bool(ok), f"{len(want_rows)} rows, header and length match={shape_ok}")]


def read_edge_list(path: str) -> np.ndarray:
    """Adjacency matrix from the edge-list file `radsgd topology` writes."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.split() for line in handle if line.strip() and not line.startswith("#")]
    n = int(lines[0][1])
    adjacency = np.zeros((n, n))
    for u, v in lines[1:]:
        adjacency[int(u), int(v)] = adjacency[int(v), int(u)] = 1.0
    return adjacency


def symmetric_consensus_rate(laplacian: np.ndarray, degrees: np.ndarray, epsilon: float, p: float) -> float:
    """max(|1 - eps*l_2(H)|, |1 - eps*l_n(H)|), H = S^1/2 L S^1/2, S = diag(p(1-p)^d)."""
    root_s = np.sqrt(p * (1.0 - p) ** degrees)
    eig = np.linalg.eigvalsh(root_s[:, None] * laplacian * root_s[None, :])
    return float(max(abs(1.0 - epsilon * eig[1]), abs(1.0 - epsilon * eig[-1])))


def analyze_checks(out_dir: str, topology_dir: str, grid_step: float) -> list:
    checks = []
    header, rows = read_csv(os.path.join(out_dir, "analyze.csv"))
    checks.append(("analyze.csv header", header == ANALYZE_HEADER, ",".join(header)))
    values = np.array(rows, dtype=float)
    ps, throughput, rate = values[:, 0], values[:, 1], values[:, 2]
    expected_points = len(np.arange(0.0, 1.0 + grid_step / 2.0, grid_step))
    checks.append(("analyze grid points", len(ps) == expected_points, f"{len(ps)} rows, want {expected_points}"))

    adjacency = read_edge_list(os.path.join(topology_dir, "edges.txt"))
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    epsilon = 1.0 / (degrees.max() + 1.0)

    want = ps * np.sum(degrees[None, :] * (1.0 - ps[:, None]) ** degrees[None, :], axis=1)
    ok = np.allclose(throughput, want, rtol=1e-12, atol=1e-15)
    checks.append(("throughput = p*sum d(1-p)^d", bool(ok), f"max abs diff {np.max(np.abs(throughput - want)):.2e}"))

    ends = (ps == 0.0) | (ps == 1.0)
    ok = ends.sum() == 2 and np.all(np.abs(rate[ends] - 1.0) <= 1e-12)
    checks.append(("rate = 1 at p in {0, 1}", bool(ok), f"rates {rate[ends].tolist()}"))

    interior = np.flatnonzero(~ends)
    want = np.array([symmetric_consensus_rate(laplacian, degrees, epsilon, ps[k]) for k in interior])
    diff = float(np.max(np.abs(rate[interior] - want)))
    checks.append((
        "consensus_rate = symmetric reduction",
        diff <= RATE_ATOL,
        f"{len(interior)} grid points, max abs diff {diff:.2e}",
    ))
    return checks


def gap_check(stdout_path: str, adjacency_path: str) -> list:
    """c03: the printed gap between the optima is at most 0.05 when min degree >= 2."""
    with open(stdout_path, encoding="utf-8") as handle:
        match = re.search(r"^gap\s*=\s*(\S+)$", handle.read(), re.MULTILINE)
    if match is None:
        return [("analyze prints the gap", False, "no 'gap = ' line on stdout")]
    gap = float(match.group(1))
    min_degree = int(read_edge_list(adjacency_path).sum(axis=1).min())
    if min_degree < 2:
        return [("analyze prints the gap", True, f"gap {gap} (pendant node, c03 bound not applicable)")]
    return [("optima gap <= 0.05 (c03)", gap <= MAX_GAP, f"gap {gap}, min degree {min_degree}")]


def sweep_checks(out_dir: str, probabilities: list[float], cells: int, checkpoints: list[int],
                 classification: bool) -> list:
    checks = []
    header, rows = read_csv(os.path.join(out_dir, "sweep.csv"))
    checks.append(("sweep.csv header", header == SWEEP_HEADER, ",".join(header)))
    checks.append((
        "no diverged runs",
        not os.path.exists(os.path.join(out_dir, "sweep_errors.csv")),
        "sweep_errors.csv absent",
    ))
    want_rows = cells * len(checkpoints)
    iterations_ok = all(
        [int(r[2]) for r in rows[k * len(checkpoints):(k + 1) * len(checkpoints)]] == checkpoints
        for k in range(cells)
    )
    checks.append(("sweep rows", len(rows) == want_rows and iterations_ok, f"{len(rows)} rows, want {want_rows}"))

    losses = np.array([float(r[3]) for r in rows])
    accuracy = [r[4] for r in rows]
    acc_ok = (
        all(0.0 <= float(a) <= 1.0 for a in accuracy) if classification else all(a == "" for a in accuracy)
    )
    checks.append(("losses finite, accuracy column well-formed", bool(np.all(np.isfinite(losses)) and acc_ok), ""))

    if 0.0 in probabilities and 1.0 in probabilities:
        finals = final_losses(os.path.join(out_dir, "sweep.csv"))
        mean = {
            p: np.mean([v for k, v in finals.items() if float(k.split(",")[0]) == p]) for p in probabilities
        }
        inner = [p for p in probabilities if 0.0 < p < 1.0]
        ok = all(mean[p] < mean[0.0] and mean[p] < mean[1.0] for p in inner)
        checks.append((
            "interior p beats p=0 and p=1 on final loss (c07)",
            bool(ok),
            " ".join(f"{p:g}:{mean[p]:.4f}" for p in probabilities),
        ))
    return checks
