import copy
import pickle

import numpy as np
import pytest

from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
from qcoord.coordination import (
    CoordinationError,
    CqEnsemble,
    Extension,
    ExtensionNotValidated,
    RatePoint,
    cascade_rate_point,
    isolated_rate,
    kron_table,
    mixture,
    two_node_rate,
    validate_extension,
)
from qcoord.optimizer import optimize
from qcoord.protocol import converse_check, simulate_two_node
from qcoord.quantum import (
    DensityOperator,
    HermitianObservable,
    Povm,
    born_distribution,
    observable_expectation,
    tensor,
)

from conftest import (
    ETA,
    KET0,
    KET1,
    KETP,
    cascade_flip_pair,
    degenerate_z_cascade,
    phase_flip_pair,
)
from oracles import binary_entropy, random_density, reference_kron_table

COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda r: pickle.loads(pickle.dumps(r))}

PAULI_Z = HermitianObservable(np.diag([1.0, -1.0]).astype(complex))
PAULI_X = HermitianObservable(np.array([[0, 1], [1, 0]], dtype=complex))


class TestMixtureHelpers:
    def test_kron_table_folds_left_over_every_cell(self):
        rng = np.random.default_rng(4)
        lists = [[rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                  for _ in range(k)] for d, k in ((2, 3), (3, 2), (2, 2))]
        table = kron_table(*lists)
        assert table.shape == (3, 2, 2, 12, 12)
        for i, a in enumerate(lists[0]):
            for j, b in enumerate(lists[1]):
                for k, c in enumerate(lists[2]):
                    want = np.kron(np.kron(a, b), c)
                    assert np.array_equal(table[i, j, k], want)

    def test_kron_table_reads_density_operators(self):
        table = kron_table([KET0, KET1])
        assert np.array_equal(table[1], KET1.matrix)

    def test_mixture_skips_zero_weights_in_c_order(self):
        blocks = np.array([[[[np.inf]], [[1.0]]], [[[2.0]], [[4.0]]]])
        weights = np.array([[0.0, 0.5], [0.25, 0.25]])
        out = mixture(weights, blocks)
        assert out.dtype == complex
        assert out[0, 0] == (0.5 * 1.0 + 0.25 * 2.0) + 0.25 * 4.0


class TestRestTable:
    def test_label_table_is_built_once_per_extension(self, monkeypatch):
        from qcoord import coordination
        ens, built = cascade_flip_pair(0.2)
        ext = Extension(built.joint, built.atoms_a, built.atoms_b,
                        built.atoms_c, kind="cascade")
        # the rests as they were built before the table was cached
        t, atoms_c = ext.as_cascade()
        px = t.reshape(t.shape[0], -1).sum(axis=1)
        table = kron_table(ext.atoms_b, atoms_c)
        want = [mixture(t[i] / px[i], table) for i in range(2)]
        builds = []
        real = coordination.kron_table

        def spy(*lists):
            builds.append(len(lists))
            return real(*lists)
        monkeypatch.setattr(coordination, "kron_table", spy)
        for _ in range(2):
            assert validate_extension(ext, ens).passed
            got = [ext.conditional_rest(i) for i in range(2)]
        assert builds == [2]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestKronTables:
    @pytest.mark.parametrize("pair", ["example1", "three_symbol", "cascade"])
    def test_tables_equal_the_kron_fold_and_are_built_once(self, pair):
        from test_golden_traces import example1, three_symbol
        from qcoord.protocol import _tables
        ens, ext = {"example1": example1, "three_symbol": three_symbol,
                    "cascade": lambda: cascade_flip_pair(0.1)}[pair]()
        atoms_c = ext.as_cascade()[1]
        for lists in [(ext.atoms_a, ext.atoms_b, atoms_c),
                      (ext.atoms_b, atoms_c), (ext.atoms_a,)]:
            got, want = kron_table(*lists), reference_kron_table(*lists)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        first, again = _tables(ens, ext), _tables(ens, ext)
        assert again.k is first.k is ext.label_table
        assert again.t is first.t is ext.tau_table
        assert first.k.tobytes() == reference_kron_table(
            ext.atoms_a, ext.atoms_b, atoms_c).tobytes()
        for x, a in enumerate(ext.atoms_a):
            assert np.array_equal(first.t[x], np.kron(
                a.matrix, ext.conditional_rest(x)))


class TestValidation:
    def test_three_symbol_decomposition_against_own_ensemble(
            self, example1_three_symbol):
        ens, ext = example1_three_symbol
        report = validate_extension(ext, ens)
        assert report.passed
        # the average state the extension induces, from its own X marginal
        px = ext.joint.marginal(["X"]).table
        induced = sum(
            w * tensor(a, DensityOperator(ext.conditional_rest(i))).matrix
            for i, (w, a) in enumerate(zip(px, ext.atoms_a)))
        assert np.allclose(induced, ens.average_state().matrix)

    def test_perturbed_conditional_fails_with_measured_deviation(
            self, example1_pair):
        ens, _ = example1_pair
        x, y = Alphabet("X", ["x0", "x1"]), Alphabet("Y", ["y0", "y+"])
        eps = 1e-3
        joint = pmf_from_assignments([x, y], {
            ("x0", "y0"): 0.5, ("x1", "y0"): 0.25 + eps,
            ("x1", "y+"): 0.25 - eps})
        ext = Extension(joint, [KET0, KET1], [KET0, KETP], kind="two-node")
        report = validate_extension(ext, ens)
        assert not report.passed
        worst = max(c.deviation for c in report.failures())
        assert worst == pytest.approx(eps, rel=0.5)

    def test_isolated_correlated_ac_fails_product_check(self):
        x = Alphabet("X", ["x0", "x1"])
        y = Alphabet("Y", ["y0"])
        z = Alphabet("Z", ["z0", "z1"])
        # Z copies X, and the C atoms are distinguishable: correlated AC
        states = [tensor(tensor(KET0, KET0), KET0),
                  tensor(tensor(KET1, KET0), KET1)]
        ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                         {"A": 2, "B": 2, "C": 2})
        cube = np.zeros((2, 1, 2))
        cube[0, 0, 0] = cube[1, 0, 1] = 0.5
        ext = Extension(JointPmf([x, y, z], cube), [KET0, KET1], [KET0],
                        [KET0, KET1], kind="isolated")
        report = validate_extension(ext, ens)
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert any("sigma_A x sigma_C" in n for n in names)

    def test_shape_mismatch_is_rejected_not_failed(self, example1_pair):
        ens, _ = example1_pair
        x = Alphabet("X", ["x0", "x1", "x2"])
        y = Alphabet("Y", ["y0"])
        joint = pmf_from_assignments([x, y], {("x0", "y0"): 0.5,
                                              ("x1", "y0"): 0.25,
                                              ("x2", "y0"): 0.25})
        ext = Extension(joint, [KET0, KET1, KET1], [KET0], kind="two-node")
        with pytest.raises(CoordinationError):
            validate_extension(ext, ens)

    def test_non_factorizing_target_fails(self):
        x = Alphabet("X", ["x0"])
        correlated = DensityOperator(
            0.5 * tensor(KET0, KET0).matrix + 0.5 * tensor(KET1, KET1).matrix)
        ens = CqEnsemble(JointPmf([x], [1.0]), [correlated],
                         {"A": 2, "B": 2})
        assert not ens.factorizes()
        y = Alphabet("Y", ["y0"])
        half = DensityOperator.maximally_mixed(2)
        ext = Extension(pmf_from_assignments([x, y], {("x0", "y0"): 1.0}),
                        [half], [half], kind="two-node")
        report = validate_extension(ext, ens)
        assert not report.passed
        assert any("factorizes" in c.name for c in report.failures())

    def test_soundness_plants_large_deviation(self, example1_pair):
        ens, _ = example1_pair
        x, y = Alphabet("X", ["x0", "x1"]), Alphabet("Y", ["y0", "y+"])
        joint = pmf_from_assignments([x, y], {
            ("x0", "y0"): 0.5, ("x1", "y0"): 0.30, ("x1", "y+"): 0.20})
        ext = Extension(joint, [KET0, KET1], [KET0, KETP], kind="two-node")
        report = validate_extension(ext, ens, tol=1e-6)
        assert not report.passed


class TestTwoNodeRate:
    def test_copy_decomposition_rate(self, example1_three_symbol):
        _, ext = example1_three_symbol
        assert two_node_rate(ext) == 1.5

    def test_shared_atom_decomposition_rate(self, example1_pair):
        _, ext = example1_pair
        assert two_node_rate(ext) == pytest.approx(
            binary_entropy(0.25) - 0.5, abs=1e-12)
        assert two_node_rate(ext) == pytest.approx(0.3112, abs=1e-4)

    def test_product_target_needs_no_communication(self):
        ens, ext = phase_flip_pair(0.5)
        assert two_node_rate(ext) == 0.0

    def test_requires_validation(self, example1_pair):
        ens, _ = example1_pair
        x, y = Alphabet("X", ["x0", "x1"]), Alphabet("Y", ["y0", "y+"])
        joint = pmf_from_assignments([x, y], {
            ("x0", "y0"): 0.5, ("x1", "y0"): 0.25, ("x1", "y+"): 0.25})
        ext = Extension(joint, [KET0, KET1], [KET0, KETP], kind="two-node")
        with pytest.raises(ExtensionNotValidated):
            two_node_rate(ext)

    def test_rate_invariant_under_label_permutation(self, example1_pair):
        ens, ext = example1_pair
        x = Alphabet("X", ["x0", "x1"])
        y = Alphabet("Y", ["y+", "y0"])  # swapped labels
        joint = pmf_from_assignments([x, y], {
            ("x0", "y0"): 0.5, ("x1", "y0"): 0.25, ("x1", "y+"): 0.25})
        swapped = Extension(joint, [KET0, KET1], [KETP, KET0],
                            kind="two-node")
        assert validate_extension(swapped, ens).passed
        assert two_node_rate(swapped) == pytest.approx(two_node_rate(ext),
                                                       abs=1e-12)


class TestCascadeRates:
    def test_degenerate_relay_equals_two_node_exactly(self, example1_pair):
        ens3, ext3 = degenerate_z_cascade(example1_pair)
        _, ext2 = example1_pair
        pt = cascade_rate_point(ext3)
        assert pt.r12 == two_node_rate(ext2)
        assert pt.r23 == 0.0

    def test_orthogonal_copy_chain(self):
        x = Alphabet("X", ["x0", "x1"])
        y = Alphabet("Y", ["y0", "y1"])
        z = Alphabet("Z", ["z0", "z1"])
        states = [tensor(tensor(KET0, KET0), KET0),
                  tensor(tensor(KET1, KET1), KET1)]
        ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                         {"A": 2, "B": 2, "C": 2})
        cube = np.zeros((2, 2, 2))
        cube[0, 0, 0] = cube[1, 1, 1] = 0.5
        ext = Extension(JointPmf([x, y, z], cube), [KET0, KET1],
                        [KET0, KET1], [KET0, KET1], kind="cascade")
        assert validate_extension(ext, ens).passed
        pt = cascade_rate_point(ext)
        assert pt.r12 == pytest.approx(1.0)
        assert pt.r23 == pytest.approx(1.0)

    def test_noisy_relay_corner(self):
        ens, ext = cascade_flip_pair(0.1)
        pt = cascade_rate_point(ext)
        assert pt.r12 == pytest.approx(1.0, abs=1e-12)
        assert pt.r23 == pytest.approx(1 - binary_entropy(0.1), abs=1e-12)

    def test_rate_point_invariants(self):
        with pytest.raises(CoordinationError):
            RatePoint(float("nan"))


class TestIsolatedRate:
    def _build(self, cube, atoms_c, c_states):
        x = Alphabet("X", ["x0", "x1"])
        y = Alphabet("Y", ["y0", "y1"])
        z = Alphabet("Z", [f"z{i}" for i in range(cube.shape[2])])
        states = [tensor(tensor(KET0, KET0), c_states[0]),
                  tensor(tensor(KET1, KET1), c_states[1])]
        ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                         {"A": 2, "B": 2, "C": 2})
        ext = Extension(JointPmf([x, y, z], cube), [KET0, KET1],
                        [KET0, KET1], atoms_c, kind="isolated")
        report = validate_extension(ext, ens)
        assert report.passed, str(report)
        return ext

    def test_independent_relay_reduces_to_mi(self):
        cube = np.zeros((2, 2, 2))
        for xi in range(2):
            for zi in range(2):
                cube[xi, xi, zi] = 0.25
        ext = self._build(cube, [KET0, KET1],
                          [DensityOperator.maximally_mixed(2)] * 2)
        assert isolated_rate(ext) == pytest.approx(1.0, abs=1e-12)

    def test_relay_copy_of_label_without_source_info(self):
        # Y = Z independent of X: BC are correlated with each other but not
        # with the source, so the conditional information is zero
        x = Alphabet("X", ["x0", "x1"])
        y = Alphabet("Y", ["y0", "y1"])
        z = Alphabet("Z", ["z0", "z1"])
        bc_corr = DensityOperator(
            0.5 * tensor(KET0, KET0).matrix + 0.5 * tensor(KET1, KET1).matrix)
        states = [tensor(KET0, bc_corr), tensor(KET1, bc_corr)]
        ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                         {"A": 2, "B": 2, "C": 2})
        cube = np.zeros((2, 2, 2))
        for xi in range(2):
            for yi in range(2):
                cube[xi, yi, yi] = 0.25
        ext = Extension(JointPmf([x, y, z], cube), [KET0, KET1],
                        [KET0, KET1], [KET0, KET1], kind="isolated")
        assert validate_extension(ext, ens).passed
        assert isolated_rate(ext) == pytest.approx(0.0, abs=1e-12)


class TestMeasurementStatistics:
    """A measurement's statistics averaged over the slots equal its
    statistics on the block-averaged state, which the protocol builds with
    ``mixture`` (``SimulationTrace.avg_state``)."""

    @staticmethod
    def mean_state(slots):
        weights = np.full(len(slots), 1.0 / len(slots))
        return DensityOperator(
            mixture(weights, np.array([s.matrix for s in slots])))

    def test_identical_slots(self):
        slots = [ETA] * 5
        emp = np.mean([observable_expectation(s, PAULI_X) for s in slots])
        assert emp == pytest.approx(0.5)
        assert observable_expectation(
            self.mean_state(slots), PAULI_X) == pytest.approx(0.5)

    def test_two_slot_average(self):
        slots = [KET0, KET1]
        emp = np.mean([observable_expectation(s, PAULI_Z) for s in slots])
        assert emp == pytest.approx(0.0, abs=1e-12)
        assert observable_expectation(
            self.mean_state(slots), PAULI_Z) == pytest.approx(0.0, abs=1e-12)

    def test_four_slot_pauli_x(self):
        slots = [KET0, KET0, KET1, KETP]
        emp = np.mean([observable_expectation(s, PAULI_X) for s in slots])
        assert emp == pytest.approx(0.25)
        assert observable_expectation(
            self.mean_state(slots), PAULI_X) == pytest.approx(0.25)

    def test_povm_statistics(self):
        slots, povm = [KET0, KET1], Povm.computational(2)
        emp = np.mean([born_distribution(s, povm) for s in slots], axis=0)
        assert emp == pytest.approx([0.5, 0.5])
        assert born_distribution(
            self.mean_state(slots), povm) == pytest.approx([0.5, 0.5])

    def test_identity_holds_on_random_slots(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            slots = [DensityOperator(random_density(rng, 3))
                     for _ in range(7)]
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            obs = HermitianObservable(0.5 * (g + g.conj().T))
            emp = np.mean([observable_expectation(s, obs) for s in slots])
            assert emp == pytest.approx(observable_expectation(
                self.mean_state(slots), obs), abs=1e-10)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_library_results_copy_and_pickle(example1_pair, how):
    ens, ext = example1_pair
    traces = simulate_two_node(ens, ext, n=6, rate=2.0 / 6, trials=5, seed=1,
                               delta=0.2, engine="explicit",
                               codeword_rate=0.5)
    # each result with what a copy must keep of it
    results = {
        "JointPmf": (ext.joint, lambda p: (p.names, p.table.tobytes())),
        "CqEnsemble": (ens, lambda e: (e.source.table.tobytes(),
                                       [s.matrix.tobytes() for s in e.states],
                                       e.register_dims)),
        "Extension": (ext, two_node_rate),
        "ConverseReport": (converse_check(traces, ens, ext, rate=2.0 / 6),
                           lambda r: (r.passed, r.eps_n,
                                      r.measured.table.tobytes())),
        "OptimizerResult": (optimize(ens, "two-node"),
                            lambda r: (r.value, r.gap,
                                       r.extension.joint.table.tobytes())),
    }
    for name, (obj, kept) in results.items():
        twin = COPIES[how](obj)
        assert type(twin) is type(obj) and kept(twin) == kept(obj), name
    twin = COPIES[how](ext.joint)
    assert not twin.table.flags.writeable
    with pytest.raises(AttributeError, match="JointPmf is immutable"):
        twin.table = None
