"""Tests for the data generators (synthetic, LETOR-like, portfolio, geo)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.geo import make_geo_instance
from repro.data.letor import MAX_RELEVANCE, SyntheticLetorCorpus
from repro.data.portfolio import make_portfolio_instance
from repro.data.synthetic import (
    PAPER_SYNTHETIC_TRADEOFF,
    make_feature_instance,
    make_synthetic_instance,
)
from repro.exceptions import InvalidParameterError
from repro.metrics.validation import is_metric


class TestSyntheticInstance:
    def test_paper_ranges(self):
        instance = make_synthetic_instance(30, seed=0)
        assert instance.n == 30
        assert instance.tradeoff == PAPER_SYNTHETIC_TRADEOFF
        assert np.all(instance.weights >= 0.0) and np.all(instance.weights <= 1.0)
        distances = instance.distances
        off_diagonal = distances[~np.eye(30, dtype=bool)]
        assert off_diagonal.min() >= 1.0 and off_diagonal.max() <= 2.0

    def test_metric_valid(self):
        assert is_metric(make_synthetic_instance(15, seed=1).metric)

    def test_reproducible(self):
        a = make_synthetic_instance(10, seed=5)
        b = make_synthetic_instance(10, seed=5)
        assert np.allclose(a.weights, b.weights)
        assert np.allclose(a.distances, b.distances)

    def test_objective_assembly(self):
        instance = make_synthetic_instance(10, seed=2)
        objective = instance.objective
        assert objective.n == 10
        assert objective.tradeoff == instance.tradeoff

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            make_synthetic_instance(-1)
        with pytest.raises(InvalidParameterError):
            make_synthetic_instance(5, weight_low=2.0, weight_high=1.0)
        with pytest.raises(InvalidParameterError):
            make_synthetic_instance(5, distance_low=1.0, distance_high=3.0)


class TestLetorCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return SyntheticLetorCorpus(num_queries=3, docs_per_query=60, seed=7)

    def test_shape(self, corpus):
        assert corpus.num_queries == 3
        assert corpus.query_ids == (0, 1, 2)
        for query in corpus.queries():
            assert query.n == 60

    def test_relevance_grades_in_range(self, corpus):
        for query in corpus.queries():
            relevances = query.relevances
            assert relevances.min() >= 0
            assert relevances.max() <= MAX_RELEVANCE
            assert np.allclose(relevances, np.round(relevances))

    def test_relevance_has_spread(self, corpus):
        # The pool must not be a single grade, otherwise diversification is moot.
        grades = corpus.query(0).relevances
        assert len(np.unique(grades)) >= 3

    def test_metric_is_valid_cosine_distance(self, corpus):
        metric = corpus.query(0).metric()
        matrix = metric.to_matrix()
        assert matrix.min() >= 0.0
        assert matrix.max() <= 2.0 + 1e-9
        assert np.allclose(np.diag(matrix), 0.0)

    def test_top_documents_sorted_by_relevance(self, corpus):
        query = corpus.query(1)
        top = query.top_documents(10)
        assert top.n == 10
        top_grades = top.relevances
        remaining_max = sorted(query.relevances, reverse=True)[:10]
        assert sorted(top_grades, reverse=True) == pytest.approx(remaining_max)

    def test_top_documents_reindexed(self, corpus):
        top = corpus.query(0).top_documents(5)
        assert [doc.doc_id for doc in top.documents] == list(range(5))

    def test_objective_assembly(self, corpus):
        objective = corpus.query(2).top_documents(20).objective(0.3)
        assert objective.n == 20
        assert (
            objective.quality.value({0})
            == corpus.query(2).top_documents(20).relevances[0]
        )

    def test_reproducible(self):
        a = SyntheticLetorCorpus(num_queries=1, docs_per_query=20, seed=3)
        b = SyntheticLetorCorpus(num_queries=1, docs_per_query=20, seed=3)
        assert np.allclose(a.query(0).features, b.query(0).features)
        assert np.allclose(a.query(0).relevances, b.query(0).relevances)

    def test_unknown_query_rejected(self, corpus):
        with pytest.raises(InvalidParameterError):
            corpus.query(99)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            SyntheticLetorCorpus(num_queries=0)
        with pytest.raises(InvalidParameterError):
            SyntheticLetorCorpus(num_queries=1, docs_per_query=10, num_aspects=0)
        with pytest.raises(InvalidParameterError):
            SyntheticLetorCorpus(num_queries=1, docs_per_query=10, relevance_skew=0.0)


class TestPortfolioInstance:
    def test_shape_and_matroid(self):
        instance = make_portfolio_instance(18, sector_capacity=2, seed=0)
        assert instance.n == 18
        matroid = instance.matroid
        assert matroid.n == 18
        # at most 2 per sector
        assert matroid.rank() == min(18, 2 * len(set(instance.sectors)))

    def test_quality_is_submodular(self):
        from repro.functions.verification import is_monotone, is_submodular

        instance = make_portfolio_instance(8, seed=1)
        assert is_monotone(instance.quality)
        assert is_submodular(instance.quality)

    def test_objective_assembly(self):
        instance = make_portfolio_instance(10, seed=2)
        assert instance.objective.n == 10

    def test_seed_fixes_instance_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        import repro

        script = (
            "from repro.data.portfolio import make_portfolio_instance\n"
            "instance = make_portfolio_instance(30, seed=7)\n"
            "print(instance.risk_return.tolist())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(completed.stdout)
        assert len(outputs) == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_portfolio_instance(0)
        with pytest.raises(InvalidParameterError):
            make_portfolio_instance(5, sector_capacity=0)
        with pytest.raises(InvalidParameterError):
            make_portfolio_instance(5, sectors=[])


class TestGeoInstance:
    def test_shape(self):
        instance = make_geo_instance(25, num_districts=3, seed=0)
        assert instance.n == 25
        assert instance.points.shape == (25, 2)
        assert len(instance.district) == 25
        assert set(instance.district) <= set(range(3))

    def test_metric_and_matroid(self):
        instance = make_geo_instance(12, num_districts=2, seed=1)
        assert is_metric(instance.metric)
        matroid = instance.district_matroid(per_district=2)
        assert matroid.is_independent(set())

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_geo_instance(0)
        with pytest.raises(InvalidParameterError):
            make_geo_instance(5, num_districts=0)


class TestFeatureInstance:
    def test_shape_and_objective(self):
        instance = make_feature_instance(40, dimension=5, tradeoff=0.3, seed=2)
        assert instance.n == 40
        assert instance.metric.points.shape == (40, 5)
        assert instance.weights.shape == (40,)
        assert np.all(instance.weights >= 0)
        objective = instance.objective
        assert objective.n == 40
        assert objective.tradeoff == 0.3
        # Feature instances are the lazy tier: no materialized matrix view.
        assert instance.metric.matrix_view() is None

    def test_reproducible(self):
        first = make_feature_instance(15, seed=7)
        second = make_feature_instance(15, seed=7)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.metric.points, second.metric.points)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_feature_instance(-1)
        with pytest.raises(InvalidParameterError):
            make_feature_instance(5, dimension=0)
        with pytest.raises(InvalidParameterError):
            make_feature_instance(5, weight_low=2.0, weight_high=1.0)
