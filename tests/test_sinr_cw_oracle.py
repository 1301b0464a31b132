"""The GLOBAL-power Collatz–Wielandt oracle and its power witness.

Covers the high length-diversity sets on which float64 ``eigvals``
misjudges feasibility, agreement with ``eigvals`` outside the ambiguity
band, the certificate memo on the kernel cache, and the eigen-solve
ratchet on a fixed GLOBAL cell.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Pipeline, PipelineConfig
from repro.coloring.greedy import greedy_coloring
from repro.coloring.validation import color_classes
from repro.constants import FEASIBILITY_BAND, FEASIBILITY_MARGIN
from repro.errors import ConfigurationError, InfeasibleError
from repro.geometry.generators import (
    cluster_points_total,
    exponential_line,
    uniform_square,
)
from repro.links.linkset import LinkSet
from repro.power.oblivious import LinearPower
from repro.runner.engine import run_cell
from repro.runner.spec import CellSpec
from repro.scheduling.builder import ScheduleBuilder
from repro.scheduling.repair import split_into_feasible_slots
from repro.sinr import kernels
from repro.sinr.feasibility import is_feasible_with_power
from repro.sinr.model import SINRModel
from repro.sinr.powercontrol import (
    affectance_matrix,
    feasible_power_assignment,
    is_feasible_some_power,
)
from repro.spanning.tree import AggregationTree
from repro.store.store import STORE_SCHEMA_VERSION, StageStore

BAND_LOW = (1.0 - FEASIBILITY_MARGIN) * (1.0 - FEASIBILITY_BAND)
BAND_HIGH = (1.0 - FEASIBILITY_MARGIN) * (1.0 + FEASIBILITY_BAND)


def _pipeline_links(topology: str, n: int, seed: int, alpha: float) -> LinkSet:
    """The MST links of a pipeline deployment, on a fresh kernel cache."""
    pipe = Pipeline(
        PipelineConfig(topology=topology, n=n, seed=seed, alpha=alpha, power="global")
    )
    links = pipe.build_tree(pipe.deploy(rng=seed)).links()
    return LinkSet(links.senders, links.receivers)


def _expand(q, subset, n):
    vec = np.ones(n)
    vec[np.asarray(subset, dtype=int)] = q
    return vec


def _frozen_eigvals_predicate(links: LinkSet, model: SINRModel):
    """The GLOBAL predicate before the Collatz–Wielandt oracle, frozen
    here as the reference: ``rho(A)`` from ``np.linalg.eigvals``."""

    def predicate(subset) -> bool:
        if len(subset) <= 1:
            return True
        try:
            a = affectance_matrix(links, model, subset)
        except InfeasibleError:
            return False
        return float(np.abs(np.linalg.eigvals(a)).max()) < 1.0 - FEASIBILITY_MARGIN

    return predicate


# ----------------------------------------------------------------------
# High length diversity: eigvals is wrong, the certificate is not
# ----------------------------------------------------------------------
class TestHighDiversity:
    @pytest.mark.parametrize("ratio,count", [(10.0, 25), (10.0, 30), (20.0, 40)])
    def test_geometric_line_global_schedule_verifies(self, ratio, count):
        points = exponential_line(count + 1, base=ratio)
        artifact = Pipeline(PipelineConfig(power="global")).run(points)
        artifact.schedule.validate()
        assert len(artifact.schedule.links) == count

    @pytest.mark.parametrize("seed", [2, 3])
    def test_exponential_400_alpha3_global_cell_is_ok(self, seed):
        cell = CellSpec(
            topology="exponential", n=400, mode="global", alpha=3.0, beta=1.0, seed=seed
        )
        result = run_cell(cell, store=StageStore())
        assert result.error is None
        assert result.slots == 5

    def test_exponential_200_alpha4_class_has_a_certificate(self):
        model = SINRModel(alpha=4.0, beta=1.0)
        links = _pipeline_links("exponential", 200, 2, 4.0)
        builder = ScheduleBuilder(model, "global")
        classes = color_classes(greedy_coloring(builder.conflict_graph(links)))
        members = next(c for c in classes.values() if len(c) == 67)
        assert is_feasible_some_power(links, model, members)
        x = feasible_power_assignment(links, model, members)
        # Independent check of the certificate: rebuild A from the raw
        # coordinates in log space and take the row sums of D^-1 A D,
        # D = diag(x).  Every row sum below 1 bounds rho(A) below 1.
        idx = np.asarray(members)
        senders, receivers = links.senders[idx], links.receivers[idx]
        d = np.linalg.norm(receivers[:, None, :] - senders[None, :, :], axis=2)
        np.fill_diagonal(d, 1.0)
        log_a = np.log(model.beta) + model.alpha * (
            np.log(links.lengths[idx])[:, None] - np.log(d)
        )
        log_terms = log_a + np.log(x)[None, :] - np.log(x)[:, None]
        np.fill_diagonal(log_terms, -np.inf)
        row_sums = np.exp(log_terms).sum(axis=1)
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        assert row_sums.max() < 1.0
        assert is_feasible_with_power(links, _expand(x, idx, len(links)), model, idx)

    def test_noisy_witness_falls_back_to_the_scaled_certificate(self):
        links = AggregationTree.mst(exponential_line(26, base=10.0), sink=0).links()
        model = SINRModel(alpha=3.0, beta=1.0, noise=1e-6)
        subset = list(range(0, 25, 3))
        p = feasible_power_assignment(links, model, subset)
        minimum = model.beta * model.noise * links.lengths[subset] ** model.alpha
        assert np.all(p >= minimum)
        assert is_feasible_with_power(links, _expand(p, subset, len(links)), model, subset)

    @pytest.mark.filterwarnings("error")
    def test_noise_floor_overflow_is_infeasible_error(self):
        links = _pipeline_links("exponential", 200, 2, 4.0)
        # beta * N * l^alpha exceeds float64 on the longest links.
        model = SINRModel(alpha=4.0, beta=1.0, noise=1e100)
        members = list(range(0, 199, 3))
        assert is_feasible_some_power(links, model, members)
        with pytest.raises(InfeasibleError, match="overflows"):
            feasible_power_assignment(links, model, members)


# ----------------------------------------------------------------------
# The ambiguity band: eigen-solve fallback
# ----------------------------------------------------------------------
class TestBandFallback:
    @staticmethod
    def _two_links(rho: float):
        """Two links whose mutual affectances differ enough that plain
        power iteration oscillates, with ``rho(A) = rho``."""
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [0.0, 3.0]]),
            receivers=np.array([[1.0, 0.0], [4.0, 3.0]]),
        )
        a = affectance_matrix(links, SINRModel(alpha=3.0, beta=1.0))
        beta = rho / np.sqrt(a[0, 1] * a[1, 0])
        return links, SINRModel(alpha=3.0, beta=float(beta))

    def test_oscillating_pair_falls_back_and_keeps_a_witness(self):
        links, model = self._two_links(0.8)
        a = affectance_matrix(links, model)
        assert max(a[0, 1], a[1, 0]) > 1.0  # CW bounds straddle 1 forever
        assert is_feasible_some_power(links, model)
        stats = links.kernel().stats
        assert (stats.eig_solves, stats.cw_decisions) == (1, 0)
        q = feasible_power_assignment(links, model)
        assert is_feasible_with_power(links, q, model)

    def test_oscillating_infeasible_pair_rejected(self):
        links, model = self._two_links(1.25)
        assert not is_feasible_some_power(links, model)
        with pytest.raises(InfeasibleError):
            feasible_power_assignment(links, model)


# ----------------------------------------------------------------------
# Properties and the frozen-eigvals differential
# ----------------------------------------------------------------------
@st.composite
def _subset_case(draw):
    topology = draw(st.sampled_from(["square", "clusters"]))
    seed = draw(st.integers(0, 10_000))
    alpha = draw(st.floats(2.5, 6.0))
    if topology == "square":
        points = uniform_square(40, rng=seed)
    else:
        points = cluster_points_total(40, clusters=4, cluster_std=0.05, rng=seed)
    # Disjoint sender/receiver pairs of the deployment: random lengths,
    # no shared nodes, so most subsets need a real spectral decision.
    links = LinkSet(points.coords[0::2], points.coords[1::2])
    size = draw(st.integers(2, 12))
    subset = sorted(draw(st.sets(st.integers(0, len(links) - 1), min_size=size, max_size=size)))
    noise = draw(st.sampled_from([0.0, 1e-6]))
    return links, SINRModel(alpha=alpha, beta=1.0, noise=noise), subset


class TestOracleProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_subset_case())
    def test_decision_matches_eigvals_outside_band(self, case):
        links, model, subset = case
        rho = float(np.abs(np.linalg.eigvals(affectance_matrix(links, model, subset))).max())
        decision = is_feasible_some_power(links, model, subset)
        if not BAND_LOW <= rho < BAND_HIGH:
            assert decision == (rho < 1.0 - FEASIBILITY_MARGIN)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_subset_case())
    def test_every_accept_has_a_verified_witness(self, case):
        links, model, subset = case
        if not is_feasible_some_power(links, model, subset):
            with pytest.raises(InfeasibleError):
                feasible_power_assignment(links, model, subset)
            return
        q = feasible_power_assignment(links, model, subset)
        assert is_feasible_with_power(links, _expand(q, subset, len(links)), model, subset)

    @pytest.mark.parametrize(
        "topology,n,seed,alpha",
        [
            ("square", 200, 1, 3.0),
            ("square", 400, 1, 3.0),
            ("square", 400, 2, 4.0),
            ("clusters", 200, 1, 3.0),
            ("clusters", 400, 2, 3.0),
            ("clusters", 400, 1, 4.0),
        ],
    )
    def test_builder_slots_match_frozen_eigvals(self, topology, n, seed, alpha):
        model = SINRModel(alpha=alpha, beta=1.0)
        links = _pipeline_links(topology, n, seed, alpha)
        builder = ScheduleBuilder(model, "global")
        schedule = builder.build(links)
        classes = color_classes(greedy_coloring(builder.conflict_graph(links)))
        predicate = _frozen_eigvals_predicate(links, model)
        expected = [
            piece
            for color in sorted(classes)
            for piece in split_into_feasible_slots(links, classes[color], predicate)
        ]
        assert [list(slot.link_indices) for slot in schedule.slots] == expected


# ----------------------------------------------------------------------
# Certificate memo, store schema and the eigen-solve ratchet
# ----------------------------------------------------------------------
class TestCertificateMemo:
    def test_store_schema_bumped_for_certificate_powers(self):
        assert STORE_SCHEMA_VERSION == 2

    def test_invalidate_clears_the_memo(self, model, two_parallel_links):
        assert is_feasible_some_power(two_parallel_links, model)
        cache = two_parallel_links.kernel()
        assert cache.certificates_memoized == 1
        cache.invalidate()
        assert cache.certificates_memoized == 0

    def test_memo_hit_skips_the_oracle(self, model, two_parallel_links):
        assert is_feasible_some_power(two_parallel_links, model)
        stats = two_parallel_links.kernel().stats
        decided = stats.cw_decisions + stats.eig_solves
        assert is_feasible_some_power(two_parallel_links, model)
        assert stats.cw_decisions + stats.eig_solves == decided

    def test_memo_stays_bounded_across_a_global_build(self, monkeypatch):
        model = SINRModel(alpha=3.0, beta=1.0)
        links = _pipeline_links("square", 400, 1, 3.0)
        reference = ScheduleBuilder(model, "global").build(links)
        assert links.kernel().certificates_memoized <= kernels._MAX_CERTIFICATES
        # A tight bound evicts warm starts and witnesses mid-build; the
        # schedule must not change.
        monkeypatch.setattr(kernels, "_MAX_CERTIFICATES", 4)
        small = LinkSet(links.senders, links.receivers)
        schedule = ScheduleBuilder(model, "global").build(small)
        stats = small.kernel().stats
        assert stats.cw_decisions + stats.eig_solves > 4
        assert small.kernel().certificates_memoized <= 4
        assert [s.link_indices for s in schedule.slots] == [
            s.link_indices for s in reference.slots
        ]
        for ours, theirs in zip(schedule.slots, reference.slots):
            assert np.array_equal(ours.powers, theirs.powers)


def test_global_square_400_eig_solve_ratchet():
    """Fixed GLOBAL cell: the schedule verifies and at most 5% of the
    feasibility probes pay an eigen-solve."""
    model = SINRModel(alpha=3.0, beta=1.0)
    links = _pipeline_links("square", 400, 1, 3.0)
    schedule = ScheduleBuilder(model, "global").build(links)
    schedule.validate()
    snapshot = links.kernel().stats.snapshot()
    probes = snapshot["cw_decisions"] + snapshot["eig_solves"]
    assert probes > 0
    assert snapshot["eig_solves"] <= 0.05 * probes


# ----------------------------------------------------------------------
# Oblivious power overflow
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("error")
class TestObliviousOverflow:
    def test_linear_power_overflow_raises_before_any_warning(self):
        links = AggregationTree.mst(exponential_line(400), sink=0).links()
        with pytest.raises(ConfigurationError, match="powers must be positive and finite"):
            LinearPower(3.0).powers(links)

    def test_linear_cell_reports_a_typed_error(self):
        cell = CellSpec(
            topology="exponential", n=400, mode="linear", alpha=3.0, beta=1.0, seed=2
        )
        result = run_cell(cell, store=StageStore())
        assert result.error.startswith("ConfigurationError:")
        assert "powers must be positive and finite" in result.error
