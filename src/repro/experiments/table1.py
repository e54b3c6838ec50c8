"""Table 1: analytic communication cost of PS, SFB and Adam.

Reproduces the worked example of Section 3.2 (a 4096x4096 FC layer, batch
size 32, 8 workers and 8 server shards); :func:`run_table1` evaluates the
cost model at any matrix shape, batch size and cluster size.  It keeps a custom body rather than
a :class:`~repro.experiments.figure.Figure`: its rows are closed-form
costs of one layer, not simulated points.  The "BestScheme" line is
Algorithm 1 itself (:func:`repro.comm.backend.choose_scheme`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.comm.backend import choose_scheme
from repro.config import ClusterConfig
from repro.core.cost_model import (
    adam_combined_cost,
    adam_server_cost,
    adam_worker_cost,
    ps_combined_cost,
    ps_server_cost,
    ps_worker_cost,
    sfb_worker_cost,
)
from repro.experiments import paper_reference
from repro.experiments.report import format_table


@dataclass(frozen=True)
class Table1Row:
    """Costs (millions of parameters) of one strategy for one configuration."""

    method: str
    server: float
    worker: float
    server_and_worker: float


@dataclass
class Table1Result:
    """The rendered cost table plus the Algorithm-1 decision."""

    m: int
    n: int
    batch_size: int
    num_workers: int
    num_servers: int
    rows: List[Table1Row] = field(default_factory=list)
    best_scheme: str = "ps"

    def row(self, method: str) -> Table1Row:
        """Look a strategy's row up by name."""
        for entry in self.rows:
            if entry.method == method:
                return entry
        raise KeyError(f"no row for method {method!r}")


def run_table1(m: int = 4096, n: int = 4096, batch_size: int = 32,
               num_workers: int = 8, num_servers: int = 8) -> Table1Result:
    """Evaluate Table 1 for one FC layer configuration."""
    to_millions = 1e-6
    rows = [
        Table1Row(
            method="PS",
            server=ps_server_cost(m, n, num_workers, num_servers) * to_millions,
            worker=ps_worker_cost(m, n) * to_millions,
            server_and_worker=ps_combined_cost(m, n, num_workers, num_servers) * to_millions,
        ),
        Table1Row(
            method="SFB",
            server=float("nan"),
            worker=sfb_worker_cost(m, n, batch_size, num_workers) * to_millions,
            server_and_worker=sfb_worker_cost(m, n, batch_size, num_workers) * to_millions,
        ),
        Table1Row(
            method="Adam (max)",
            server=adam_server_cost(m, n, batch_size, num_workers) * to_millions,
            worker=adam_worker_cost(m, n, batch_size) * to_millions,
            server_and_worker=adam_combined_cost(m, n, batch_size, num_workers) * to_millions,
        ),
    ]
    return Table1Result(
        m=m, n=n, batch_size=batch_size,
        num_workers=num_workers, num_servers=num_servers,
        rows=rows,
        best_scheme=choose_scheme(
            "hybrid", (m, n), True,
            ClusterConfig(num_workers=num_workers, num_servers=num_servers),
            batch_size),
    )


def render(result: Table1Result) -> str:
    """Render the table with the paper's worked-example comparison appended."""
    title = (
        f"Table 1: cost of synchronizing a {result.m}x{result.n} FC layer "
        f"(millions of parameters; K={result.batch_size}, "
        f"P1={result.num_workers}, P2={result.num_servers})"
    )
    table = format_table(
        headers=["Method", "Server", "Worker", "Server & Worker"],
        rows=[
            (row.method, row.server, row.worker, row.server_and_worker)
            for row in result.rows
        ],
        title=title,
    )
    reference = paper_reference.TABLE1_EXAMPLE
    footer = (
        f"\nBestScheme choice: {result.best_scheme.upper()}"
        f"\nPaper worked example: PS worker {reference['ps_worker_millions']:.0f}M, "
        f"combined {reference['ps_combined_millions']:.1f}M, "
        f"SFB {reference['sfb_worker_millions']:.1f}M"
    )
    return table + footer


def report(quick: bool = False) -> str:
    """The runner's table1 section (one configuration, ``quick`` or not)."""
    return render(run_table1())
