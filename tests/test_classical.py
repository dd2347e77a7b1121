import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcoord.classical import (
    Alphabet,
    JointPmf,
    PmfError,
    ToleranceSchedule,
    alpha_n,
    conditional_mutual_information,
    entropy,
    mutual_information,
    pmf_from_assignments,
)
from qcoord.protocol import _first_rows, _type_distance
from qcoord.sampling import TypeGrid

from oracles import binary_entropy, reference_type_distance

BIT = Alphabet("X", [0, 1])
TRIT = Alphabet("X", [0, 1, 2])


def uniform_bit(name):
    return Alphabet(name, [0, 1])


@st.composite
def random_joint_tables(draw, shape=(2, 3)):
    cells = int(np.prod(shape))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=cells,
                        max_size=cells))
    t = np.array(raw).reshape(shape)
    return t / t.sum()


# Total variation, joint types and typicality are computed by the
# protocol's scans (``protocol._type_distance``, ``_first_rows``) and the
# sampled engine's ``sampling.TypeGrid``; the classes below test them there.

def type_distance(target, rows, ctx=None) -> float:
    """TV between the joint type of one (ctx, rows) pair and ``target``."""
    rows = np.array([rows])
    ctx = np.zeros_like(rows) if ctx is None else np.array([ctx])
    return float(_type_distance(ctx, rows, np.atleast_2d(target))[0, 0])


def joint_type(shape, rows, ctx=None) -> np.ndarray:
    """The joint type, read off the distances to the point masses: a
    point mass at a cell is 1 - (the cell's frequency) away in TV."""
    freq = np.zeros(shape)
    for cell in np.ndindex(shape):
        mass = np.zeros(shape)
        mass[cell] = 1.0
        freq[cell] = 1.0 - type_distance(mass, rows, ctx)
    return freq


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(PmfError):
            Alphabet("X", [])

    def test_rejects_duplicates(self):
        with pytest.raises(PmfError):
            Alphabet("X", [0, 0])


class TestJointPmf:
    # NaN passes every comparison, so it needs its own check; two huge
    # entries would overflow the normalising sum
    @pytest.mark.parametrize("table", [
        [np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [1e308, 1e308]],
        ids=["nan", "nan_with_mass", "inf", "huge"])
    def test_rejects_non_finite_or_huge_entries(self, table):
        with pytest.raises(PmfError, match="finite and at most 1"):
            JointPmf([BIT], table)


class TestEntropy:
    def test_uniform_bit(self):
        p = JointPmf([BIT], [0.5, 0.5])
        assert entropy(p) == pytest.approx(1.0)

    def test_half_quarter_quarter(self):
        p = JointPmf([TRIT], [0.5, 0.25, 0.25])
        assert entropy(p) == 1.5  # exact in floating point

    def test_binary_entropy_quarter(self):
        p = JointPmf([BIT], [0.75, 0.25])
        assert entropy(p) == pytest.approx(binary_entropy(0.25), abs=1e-12)
        assert entropy(p) == pytest.approx(0.811278, abs=5e-7)

    def test_unknown_variable(self):
        p = JointPmf([BIT], [0.5, 0.5])
        with pytest.raises(PmfError):
            entropy(p, ["Q"])


class TestMutualInformation:
    def test_independent_bits(self):
        p = JointPmf([uniform_bit("X"), uniform_bit("Y")],
                     np.full((2, 2), 0.25))
        assert mutual_information(p, ["X"], ["Y"]) == pytest.approx(
            0.0, abs=1e-12)

    def test_copy_of_three_symbol_source(self):
        x = Alphabet("X", [0, 1, 2])
        y = Alphabet("Y", [0, 1, 2])
        p = pmf_from_assignments([x, y], {(0, 0): 0.5, (1, 1): 0.25,
                                          (2, 2): 0.25})
        assert mutual_information(p, ["X"], ["Y"]) == 1.5

    def test_shared_atom_table(self):
        x = Alphabet("X", [0, 1])
        y = Alphabet("Y", ["0", "+"])
        p = pmf_from_assignments([x, y], {(0, "0"): 0.5, (1, "0"): 0.25,
                                          (1, "+"): 0.25})
        expected = binary_entropy(0.25) - 0.5
        assert mutual_information(p, ["X"], ["Y"]) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.3112, abs=1e-4)

    def test_overlap_rejected(self):
        p = JointPmf([uniform_bit("X"), uniform_bit("Y")],
                     np.full((2, 2), 0.25))
        with pytest.raises(PmfError):
            mutual_information(p, ["X"], ["X"])


def markov_chain_pmf(flip=0.1):
    """X -> Y -> Z with binary symmetric links."""
    t = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                py = (1 - flip) if y == x else flip
                pz = (1 - flip) if z == y else flip
                t[x, y, z] = 0.5 * py * pz
    return JointPmf([uniform_bit("X"), uniform_bit("Y"), uniform_bit("Z")],
                    t)


class TestConditionalMutualInformation:
    def test_reduces_to_mi_when_condition_independent(self):
        t = np.einsum("xy,z->xyz", np.array([[0.4, 0.1], [0.1, 0.4]]),
                      np.array([0.3, 0.7]))
        p = JointPmf([uniform_bit("X"), uniform_bit("Y"), uniform_bit("Z")],
                     t)
        assert conditional_mutual_information(
            p, ["X"], ["Y"], ["Z"]) == pytest.approx(
            mutual_information(p, ["X"], ["Y"]), abs=1e-12)

    def test_fully_determined_given_condition(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 1] = 0.5
        p = JointPmf([uniform_bit("X"), uniform_bit("Y"), uniform_bit("Z")],
                     t)
        assert conditional_mutual_information(
            p, ["X"], ["Y"], ["Z"]) == pytest.approx(0.0, abs=1e-12)

    def test_markov_chain_zero(self):
        p = markov_chain_pmf(0.1)
        assert conditional_mutual_information(
            p, ["X"], ["Z"], ["Y"]) == pytest.approx(0.0, abs=1e-12)

    def test_data_processing(self):
        p = markov_chain_pmf(0.1)
        assert (mutual_information(p, ["X"], ["Z"])
                <= mutual_information(p, ["X"], ["Y"]) + 1e-10)


class TestTotalVariation:
    def test_identical(self):
        assert type_distance([0.5, 0.5], [0, 1]) == 0.0

    def test_disjoint_point_masses(self):
        assert type_distance([0.0, 1.0], [0, 0]) == 1.0

    def test_direct_sum(self):
        assert type_distance([0.5, 0.5], [0, 0, 0, 1]) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        # the target must be a (C, U) table
        with pytest.raises(ValueError):
            _type_distance(np.zeros((1, 2), dtype=int), np.array([[0, 1]]),
                           np.array([0.5, 0.5]))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, data):
        # C U runs from 1 to 16 terms, so both the sequential (< 8) and the
        # eight-accumulator (>= 8) sums are taken; a symbol one past its
        # alphabet lands in no cell, and a target on the 1/n lattice puts
        # distances exactly on the radii a scan compares them with
        num_c, num_u, num_s, num_r, n = (
            data.draw(st.integers(1, hi)) for hi in (4, 4, 40, 40, 40))
        ctx = data.draw(hnp.arrays(np.int64, (num_s, n),
                                   elements=st.integers(0, num_c)))
        rows = data.draw(hnp.arrays(np.int8, (num_r, n),
                                    elements=st.integers(0, num_u)))
        if data.draw(st.booleans()):
            target = data.draw(hnp.arrays(
                np.int64, (num_c, num_u), elements=st.integers(0, n))) / n
        else:
            target = data.draw(hnp.arrays(float, (num_c, num_u),
                                          elements=st.floats(0.0, 1.0)))
        assert np.array_equal(_type_distance(ctx, rows, target),
                              reference_type_distance(ctx, rows, target))

    @pytest.mark.parametrize("num_c, num_u", [(12, 12), (16, 17), (40, 8)])
    def test_matches_reference_past_128_cells(self, num_c, num_u):
        # above 128 terms numpy splits the run in two halves
        rng = np.random.default_rng(num_c * num_u)
        ctx = rng.integers(0, num_c + 1, size=(7, 30))
        rows = rng.integers(0, num_u + 1, size=(9, 30))
        for target in (rng.integers(0, 31, size=(num_c, num_u)) / 30,
                       rng.dirichlet(np.ones(num_c * num_u)).reshape(
                           num_c, num_u)):
            assert np.array_equal(_type_distance(ctx, rows, target),
                                  reference_type_distance(ctx, rows, target))

    @given(st.lists(st.integers(0, 3), min_size=8, max_size=8),
           st.lists(st.integers(0, 3), min_size=8, max_size=8),
           random_joint_tables(shape=(2, 2)))
    @settings(max_examples=50, deadline=None)
    def test_metric(self, sa, sb, t):
        a, b = (([v // 2 for v in s], [v % 2 for v in s]) for s in (sa, sb))
        ta, tb = joint_type((2, 2), a[1], a[0]), joint_type((2, 2), b[1], b[0])
        ab = type_distance(tb, a[1], a[0])
        assert ab == pytest.approx(type_distance(ta, b[1], b[0]), abs=1e-12)
        assert type_distance(t, a[1], a[0]) <= (
            ab + type_distance(t, b[1], b[0]) + 1e-12)


class TestChainRuleProperty:
    @given(random_joint_tables(shape=(3, 4)))
    @settings(max_examples=50, deadline=None)
    def test_chain_rule(self, table):
        p = JointPmf([Alphabet("A", range(3)), Alphabet("B", range(4))],
                     table)
        h_ab = entropy(p, ["A", "B"])
        h_a = entropy(p, ["A"])
        # H(B|A) computed directly from conditionals
        pa = table.sum(axis=1)
        h_b_given_a = sum(
            pa[i] * (-(row / pa[i])[(row / pa[i]) > 0]
                     @ np.log2((row / pa[i])[(row / pa[i]) > 0]))
            for i, row in enumerate(table) if pa[i] > 0)
        assert h_ab == pytest.approx(h_a + h_b_given_a, abs=1e-10)

    @given(random_joint_tables(shape=(2, 3)))
    @settings(max_examples=50, deadline=None)
    def test_mi_symmetry_and_nonnegativity(self, table):
        p = JointPmf([Alphabet("A", range(2)), Alphabet("B", range(3))],
                     table)
        mi_ab = mutual_information(p, ["A"], ["B"])
        mi_ba = mutual_information(p, ["B"], ["A"])
        assert mi_ab == pytest.approx(mi_ba, abs=1e-10)
        assert mi_ab >= -1e-12

    @given(random_joint_tables(shape=(2, 2, 3)))
    @settings(max_examples=50, deadline=None)
    def test_cmi_nonnegative(self, table):
        p = JointPmf([Alphabet("A", range(2)), Alphabet("B", range(2)),
                      Alphabet("C", range(3))], table)
        assert conditional_mutual_information(
            p, ["A"], ["B"], ["C"]) >= -1e-12


class TestTypes:
    def test_half_half(self):
        t = joint_type((1, 2), [0, 0, 1, 1])
        assert t == pytest.approx(np.array([[0.5, 0.5]]))
        assert t.sum() == 1.0

    def test_joint_diagonal(self):
        t = joint_type((2, 2), [0, 1], ctx=[0, 1])
        assert np.allclose(t, [[0.5, 0.0], [0.0, 0.5]])

    def test_counting(self):
        t = joint_type((1, 2), [0] * 6 + [1] * 2)
        assert t == pytest.approx(np.array([[0.75, 0.25]]))

    def test_type_is_valid_pmf(self):
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 3, size=17)
        t = joint_type((1, 3), seq.tolist())
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        assert t[0] * 17 == pytest.approx(np.bincount(seq, minlength=3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _type_distance(np.zeros((1, 2), dtype=int), np.array([[0]]),
                           np.full((1, 2), 0.5))

    def test_symbol_outside_alphabet(self):
        # a symbol outside the alphabet lands in no cell: its slot's 1/n
        # of mass is missing, so the sequence is 1/(2n) from any pmf
        assert type_distance([0.5, 0.5], [0, 2]) == pytest.approx(0.25)
        assert type_distance([1.0, 0.0], [0, 2]) == pytest.approx(0.25)


class TestTypicality:
    def test_exact_type_sequence(self):
        rows = np.array([[0, 1, 0, 1]])
        first = _first_rows(rows, np.zeros((1, 4), dtype=int),
                            np.full((1, 2), 0.5), radius=1e-6)
        assert first.tolist() == [0]

    def test_all_zeros_not_typical(self):
        rows = np.zeros((1, 20), dtype=int)
        first = _first_rows(rows, np.zeros((1, 20), dtype=int),
                            np.full((1, 2), 0.5), radius=0.1)
        assert first.tolist() == [-1]

    def test_uniform_sample_probability_bound(self):
        # oracle: P(|k - 50| < 20) for k ~ Bin(100, 1/2) exceeds 0.99
        exact = sum(comb(100, k) for k in range(31, 70)) / 2 ** 100
        assert exact >= 0.99
        # a radius off the 1/n lattice, so no k sits on the boundary
        radius, target = 0.195, np.full((1, 2), 0.5)
        grid = TypeGrid([100], target, radius, radius)
        assert math.exp(grid.log_prob("e")) == pytest.approx(exact,
                                                             rel=1e-12)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(300, 100))
        dist = _type_distance(np.zeros((1, 100), dtype=int), rows, target)
        assert (dist < radius).mean() >= 0.95


class TestToleranceSchedule:
    def test_default_radii(self):
        s = ToleranceSchedule(0.02)
        assert s.radii == (
            pytest.approx(0.02), pytest.approx(0.04), pytest.approx(0.16))

    def test_rejects_bad_delta(self):
        with pytest.raises(PmfError):
            ToleranceSchedule(0.0)

    def test_rejects_non_increasing_multipliers(self):
        with pytest.raises(PmfError):
            ToleranceSchedule(0.1, multipliers=(1, 1, 8))

    def test_linear_gamma_with_alphabet_sizes(self):
        # the simulation's default coefficient: the alphabet-size product
        s = ToleranceSchedule(0.02, gamma_coeff=float(math.prod((2, 1, 1, 2))))
        assert s.gamma == pytest.approx(0.08)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(delta=math.inf), "delta must be positive and finite"),
        (dict(delta=math.nan), "delta must be positive and finite"),
        (dict(delta=0.1, gamma_coeff=0.0), "gamma_coeff must be positive"),
        (dict(delta=0.1, gamma_coeff=-4.0), "gamma_coeff must be positive"),
        (dict(delta=0.1, gamma_coeff=math.inf), "gamma_coeff must be"),
        (dict(delta=0.1, multipliers=(0.0, 2.0, 8.0)), "multipliers must be"),
        (dict(delta=0.1, multipliers=(1.0, 2.0, math.inf)),
         "multipliers must be positive and finite"),
        (dict(delta=0.1, multipliers=(1.0, 2.0)), "three strictly increasing"),
    ], ids=["delta_inf", "delta_nan", "gamma_zero", "gamma_negative",
            "gamma_inf", "multiplier_zero", "multiplier_inf", "two_multipliers"])
    def test_rejects_malformed_values(self, kwargs, message):
        with pytest.raises(PmfError, match=message):
            ToleranceSchedule(**kwargs)


class TestAlphaN:
    def test_zero_at_zero(self):
        assert alpha_n(0.0, 2, 2) == 0.0

    def test_formula(self):
        eps = 0.01
        assert alpha_n(eps, 2, 2) == pytest.approx(
            -3 * eps * math.log2(eps * 4), abs=1e-15)

    def test_sign_flips_for_large_deviation(self):
        assert alpha_n(0.5, 2, 2) < 0 < alpha_n(0.01, 2, 2)
