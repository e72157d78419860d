"""The column-wise float pairing and the bar ledger against the array form
and the frozen bars they replaced.

``ReducedModel._pairing`` pairs each move in Python floats with the
move-independent prefixes hoisted, and ``grad_a`` builds its columns from
the frame covectors and the pair tables.  Both must reproduce the array
form of ``tests/_pairing_reference.py`` bit for bit, the weight pairing
must reproduce its closed form there, the energy's relative bar and the
rate and point bars must reproduce the reference's own copies, and so must
the stored eps row sums that the residue coupling and the flow diagnostics
read.
"""

from __future__ import annotations

import numpy as np
import pytest

from _fixtures import boundary_point, interior_point, make_cfg, near
from _pairing_reference import (rate_and_point, rate_point_bar, rel_bar, residue_coupling,
                                 weight_pairing)
from hemiflow.bubbles import BubbleParam
from hemiflow.errors import InvalidConfiguration
from hemiflow.fields import ScalarField
from hemiflow.flow import FlowParams, PseudogradientFlow
from hemiflow.landscape import find_critical_points
from hemiflow.model import SEP_DISTANCE, GradientComponents, ReducedModel

STATES_PER_DIMENSION = 110


def random_field(n, rng) -> ScalarField:
    terms = [((k,), rng.uniform(-0.02, 0.02)) for k in range(n + 1)]
    terms += [((k, j), rng.uniform(-0.02, 0.02)) for k in range(n + 1) for j in range(k, n + 1)]
    return ScalarField(n, 1.0, terms)


def state_stream(model, rng, count):
    """``count`` normalized states of 1-3 bubbles, every split into q
    boundary and p interior ones; a third of the later bubbles sit near the
    first, some of them closer than the separation scale, so that some
    pairs interact strongly."""
    n = model.n
    while count:
        m = int(rng.integers(1, 4))
        q = int(rng.integers(0, m + 1))
        pts = []
        for k in range(m):
            boundary = k < q
            if k and rng.random() < 1.0 / 3.0 and (k < q) == (0 < q):
                radius = rng.choice((0.05, 0.1))
                pts.append(near(pts[0].coords, rng, radius, within_equator=boundary))
            else:
                pts.append(boundary_point(rng, n=n) if boundary else interior_point(rng, n=n))
        bubbles = [BubbleParam(pt, rng.uniform(40.0, 400.0)) for pt in pts]
        try:
            cfg = make_cfg(model, bubbles, q=q)
        except InvalidConfiguration:
            continue
        count -= 1
        yield cfg


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_pairings_match_the_array_form_bit_for_bit(n):
    rng = np.random.default_rng(1900 + n)
    model = ReducedModel(random_field(n, rng))
    flow = PseudogradientFlow(model, find_critical_points(model.K), FlowParams.for_mass(3, n))
    kinds, pair_kinds = set(), set()
    for cfg in state_stream(model, rng, STATES_PER_DIMENSION):
        kinds.add((cfg.q, cfg.p))
        asm = model.assemble(cfg)
        for i, j, *_ in asm.interacting:
            pair_kinds.add((i < cfg.q) + (j < cfg.q))
            if asm.dist_mat[i, j] < SEP_DISTANCE:
                pair_kinds.add("crowded")
        assert asm.rel_bar == rel_bar(model, cfg, asm)
        assert asm.eps_sums == [float(np.sum(row)) for row in asm.eps_mat]
        grads = model.gradient_components(cfg, asm)
        ref_alpha, ref_lam, ref_a = [], [], []
        for i in range(cfg.size):
            ref_alpha.append(weight_pairing(model, asm, i, residue_coupling(asm, i)))
            rate, (vec, bar) = rate_and_point(model, cfg, i, asm)
            ref_lam.append(rate)
            ref_a.append((vec, bar))
            got_alpha, got_lam = grads.alpha_pairings[i], grads.lam_pairings[i]
            assert (got_alpha.center, got_alpha.halfwidth) == (ref_alpha[i].center,
                                                               ref_alpha[i].halfwidth)
            assert (got_lam.center, got_lam.halfwidth) == (rate.center, rate.halfwidth)
            got_vec, got_bar = grads.a_pairings[i]
            assert np.array_equal(got_vec, vec) and got_bar == bar
        # the certificate sums the same pairings in the same order
        label = flow.classify_region(cfg, asm)
        vel = flow.pseudogradient(cfg, label, asm)
        lhs = flow.decrease_certificate(cfg, vel)["lhs"]
        asm.grads = GradientComponents(alpha_pairings=tuple(ref_alpha),
                                       lam_pairings=tuple(ref_lam), a_pairings=tuple(ref_a))
        ref_lhs = flow.decrease_certificate(cfg, vel)["lhs"]
        assert (lhs.center, lhs.halfwidth) == (ref_lhs.center, ref_lhs.halfwidth)
    # boundary, interior and mixed states of every size, with interacting
    # interior, mixed, boundary and crowded pairs
    assert kinds == {(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)}
    assert pair_kinds == {0, 1, 2, "crowded"}


def test_one_column_pairs_as_its_stacked_column():
    # a move stacked alone, as the per-direction tests pass it, pairs to the
    # float its column gets in the call with every column
    rng = np.random.default_rng(1899)
    model = ReducedModel(random_field(5, rng))
    for cfg in state_stream(model, rng, 20):
        asm = model.assemble(cfg)
        for i in range(cfg.size):
            moves = rng.standard_normal((5, 4))
            deps = rng.standard_normal((cfg.size - 1, 4))
            dh_mut = rng.standard_normal((cfg.size - 1, 4))
            stacked = model._pairing(asm, i, moves.tolist(), deps.tolist(), dh_mut.tolist())
            for c in range(4):
                one = slice(c, c + 1)
                assert model._pairing(asm, i, moves[:, one].tolist(), deps[:, one].tolist(),
                                      dh_mut[:, one].tolist()) == [stacked[c]]


def large_states(model, rng, count):
    """``count`` states of 4-7 bubbles crowded around one point and its
    shadow on the equator."""
    while count:
        m = int(rng.integers(4, 8))
        q = int(rng.integers(0, m + 1))
        up = interior_point(rng, min_height=0.5).coords
        down = up.copy()
        down[-1] = 0.0
        pts = [near(down / np.linalg.norm(down) if k < q else up, rng, 0.3, within_equator=k < q)
               for k in range(m)]
        try:
            cfg = make_cfg(model, [BubbleParam(pt, rng.uniform(100.0, 400.0)) for pt in pts], q=q)
        except InvalidConfiguration:
            continue
        count -= 1
        yield cfg


def test_stored_eps_row_sums_are_np_sum_of_each_row():
    # up to three bubbles any order of the row sum gives the same bits; a
    # larger state tells the summation orders apart
    rng = np.random.default_rng(1898)
    model = ReducedModel(random_field(5, rng))
    for cfg in large_states(model, rng, 20):
        asm = model.assemble(cfg)
        assert asm.eps_sums == [float(np.sum(row)) for row in asm.eps_mat]


def test_bars_sum_their_terms_in_the_frozen_order():
    # a bubble's pair sum has three or more terms only from four bubbles on
    rng = np.random.default_rng(1897)
    model = ReducedModel(random_field(5, rng))
    for cfg in large_states(model, rng, 20):
        asm = model.assemble(cfg)
        assert asm.rel_bar == rel_bar(model, cfg, asm)
        grads = model.gradient_components(cfg, asm)
        for i, (rate, (_, point_bar)) in enumerate(zip(grads.lam_pairings, grads.a_pairings)):
            bar = abs(rate_point_bar(model, asm, i, residue_coupling(asm, i)))
            assert (rate.halfwidth, point_bar) == (bar, bar / cfg.bubbles[i].lam)
