"""Batched multi-query solving over one shared corpus.

:func:`solve_many` answers one candidate pool per query against a shared
corpus by running them as one serving window
(:meth:`repro.serve.PreparedCorpus.solve_window`): the corpus is prepared once
(metric materialized or kept lazy, modular weights hoisted), and each query
runs the per-query routine :func:`~repro.core.solver.solve_restricted` on its
restriction view, so no query pays an O(n²) copy.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro._types import Element
from repro.core.control import RunControl
from repro.core.local_search import LocalSearchConfig
from repro.core.result import SolverResult
from repro.core.solver import check_query
from repro.functions.base import SetFunction
from repro.matroids.base import Matroid
from repro.metrics.base import Metric

__all__ = ["solve_many"]


def solve_many(
    quality: SetFunction,
    metric: Metric,
    queries: Sequence[Iterable[Element]],
    *,
    tradeoff: float,
    p: Optional[int] = None,
    matroid: Optional[Matroid] = None,
    algorithm: str = "auto",
    local_search_config: Optional[LocalSearchConfig] = None,
    materialize: bool = True,
    control: Optional[RunControl] = None,
) -> List[SolverResult]:
    """Solve one diversification instance per candidate pool on a shared corpus.

    ``queries`` holds one pool of corpus indices per query (an empty pool
    yields an empty selection); ``p`` (clamped to each pool) or the
    corpus-level ``matroid`` (restricted to each pool), ``algorithm`` and
    ``local_search_config`` apply to every query, as in
    :func:`~repro.core.solver.solve`.  ``materialize=False`` keeps an oracle
    metric lazy instead of materializing its O(n²) matrix once.  ``control``
    may carry a deadline shared by the whole batch; checkpoint fields raise
    and a trace is ignored.  A query not started when the deadline expires
    returns an empty selection with ``metadata["phase"] = "window_queue"``.
    Every query runs before the first query's exception, if any, is raised.

    Returns one result per query, in query order and corpus indices, each
    recording its deduplicated pool under ``metadata["candidates"]``.
    """
    from repro.serve.corpus import PreparedCorpus, ServeQuery

    check_query(metric.n, algorithm, p, matroid)
    deadline = RunControl.coerce(control).check("batch").deadline
    corpus = PreparedCorpus(
        quality, metric, tradeoff=tradeoff, materialize=materialize, cache_size=0
    )
    outcomes = corpus.solve_window(
        [
            ServeQuery(
                pool=tuple(query),
                p=p,
                matroid=matroid,
                algorithm=algorithm,
                local_search_config=local_search_config,
            )
            for query in queries
        ],
        deadline=deadline,
    )
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
