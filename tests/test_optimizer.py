import os

import numpy as np
import pytest

from qcoord.classical import Alphabet, JointPmf
from qcoord.config import build_ensemble, load_config, resolve_family
from qcoord.coordination import (CoordinationError, CqEnsemble,
                                 validate_extension)
from qcoord import coordination, optimizer
from qcoord.optimizer import (
    DEDUP_TOL,
    OBJ_TOL,
    AtomCandidateSet,
    minimize_conditional,
    optimize,
    optimize_lambdas,
    propose_atoms,
)
from qcoord.quantum import DensityOperator, tensor, trace_norm_distance

from conftest import (ETA, KET0, KET1, KETP, KETM, cascade_flip_pair,
                      phase_flip_pair)
from oracles import (
    binary_entropy,
    grid_min_mutual_information,
    random_pure,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def contains_atom(atoms, matrix, tol=1e-9):
    return any(trace_norm_distance(a.matrix, matrix) < tol
               for a in atoms)


class TestProposeAtoms:
    def test_three_symbol_target_yields_shared_atoms(
            self, example1_three_symbol):
        ens, _ = example1_three_symbol
        cands = propose_atoms(ens, max_merge_order=2)
        assert contains_atom(cands.atoms_b, KET0.matrix)
        assert contains_atom(cands.atoms_b, KETP.matrix)
        assert contains_atom(cands.atoms_b, ETA.matrix)

    def test_two_symbol_target_recovers_conjugate_atom_by_peeling(
            self, example1_pair):
        ens, _ = example1_pair
        cands = propose_atoms(ens, max_merge_order=2)
        assert contains_atom(cands.atoms_b, KETP.matrix)
        assert "peeled" in cands.provenance_b

    def test_pure_conditionals_give_pure_atoms(self):
        ens, _ = phase_flip_pair(0.0)
        cands = propose_atoms(ens, max_merge_order=1)
        for atom in cands.atoms_b:
            vals = np.linalg.eigvalsh(atom.matrix)
            assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_product_target_includes_average_atom(self):
        ens, _ = phase_flip_pair(0.5)
        cands = propose_atoms(ens, max_merge_order=2)
        assert contains_atom(cands.atoms_b,
                             DensityOperator.maximally_mixed(2).matrix)

    def test_dedup(self, example1_three_symbol):
        ens, _ = example1_three_symbol
        cands = propose_atoms(ens, max_merge_order=2)
        for i, a in enumerate(cands.atoms_b):
            for b in cands.atoms_b[i + 1:]:
                assert trace_norm_distance(a.matrix, b.matrix) >= 1e-9


class TestMinimizeConditional:
    def test_shared_atoms_forced_point(self, example1_pair):
        ens, _ = example1_pair
        atoms = AtomCandidateSet(atoms_b=(KET0, KETP),
                                 provenance_b=("user", "user"))
        res = minimize_conditional(ens, atoms, kind="two-node")
        assert res.feasible
        assert res.value == pytest.approx(binary_entropy(0.25) - 0.5,
                                          abs=1e-6)
        # the feasibility system pins the conditionals uniquely
        assert res.conditional[1] == pytest.approx([0.5, 0.5], abs=1e-7)

    def test_copy_atoms_upper_bound(self, example1_three_symbol):
        ens, _ = example1_three_symbol
        atoms = AtomCandidateSet(atoms_b=(KET0, KET0, KETP),
                                 provenance_b=("user",) * 3)
        res = minimize_conditional(ens, atoms, kind="two-node")
        assert res.feasible
        assert res.value <= 1.5 + 1e-9

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
    def test_phase_flip_closed_form(self, p):
        ens, _ = phase_flip_pair(p)
        atoms = AtomCandidateSet(atoms_b=(KETP, KETM),
                                 provenance_b=("user", "user"))
        res = minimize_conditional(ens, atoms, kind="two-node")
        assert res.feasible
        assert res.value == pytest.approx(1 - binary_entropy(p), abs=1e-9)

    def test_objective_trace_monotone(self, example1_pair):
        ens, _ = example1_pair
        res = minimize_conditional(ens, propose_atoms(ens, 2),
                                   kind="two-node")
        trace = res.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9
                   for i in range(len(trace) - 1))

    def test_result_passes_validation(self, example1_pair):
        ens, _ = example1_pair
        res = minimize_conditional(ens, propose_atoms(ens, 2),
                                   kind="two-node")
        assert res.feasible
        report = validate_extension(res.extension, ens, tol=1e-6)
        assert report.passed

    def test_infeasible_atom_set_reported(self, example1_pair):
        ens, _ = example1_pair
        atoms = AtomCandidateSet(atoms_b=(KET0, KET1),
                                 provenance_b=("user", "user"))
        res = minimize_conditional(ens, atoms, kind="two-node")
        assert not res.feasible
        assert res.max_residual > 1e-8
        assert res.extension is None

    def test_feasibility_residual_below_tolerance(self, example1_pair):
        ens, _ = example1_pair
        res = minimize_conditional(ens, propose_atoms(ens, 2),
                                   kind="two-node")
        assert res.max_residual <= 1e-8

    def test_deterministic(self, example1_pair):
        ens, _ = example1_pair
        atoms = propose_atoms(ens, 2)
        r1 = minimize_conditional(ens, atoms, kind="two-node")
        r2 = minimize_conditional(ens, atoms, kind="two-node")
        assert r1.value == r2.value
        assert np.array_equal(r1.conditional, r2.conditional)


    @pytest.mark.parametrize("extra_atoms", [13, 17])
    def test_many_complex_atoms_reach_closed_form(self, example1_pair,
                                                  extra_atoms):
        # 16 and 20 complex qubit atoms: a rank-4 system with 2,516 and
        # 6,195 candidate supports of at most 4 atoms
        ens, _ = example1_pair
        angles = np.linspace(0.0, np.pi, 18, endpoint=False)[1:]
        extra = tuple(DensityOperator.pure(
            [np.cos(t / 2), np.exp(3j * t) * np.sin(t / 2)]) for t in angles)
        atoms_b = (KET0, KETP, KET1) + extra[:extra_atoms]
        atoms = AtomCandidateSet(atoms_b=atoms_b,
                                 provenance_b=("user",) * len(atoms_b))
        res = minimize_conditional(ens, atoms, kind="two-node")
        assert res.feasible
        assert res.gap <= 1e-9
        assert res.value == pytest.approx(binary_entropy(0.25) - 0.5,
                                          abs=1e-11)

    def test_duplicate_atom_at_every_position(self, example1_pair):
        # |+> twice: the 12-point real Bloch grid holds it at k = 3, and a
        # second copy can make the Newton system singular, depending on
        # where it is inserted
        ens, _ = example1_pair
        grid = [DensityOperator.pure([np.cos(t / 2), np.sin(t / 2)])
                for t in 2 * np.pi * np.arange(12) / 12]
        for position in range(13):
            atoms_b = tuple(grid[:position] + [KETP] + grid[position:])
            res = minimize_conditional(ens, AtomCandidateSet(atoms_b=atoms_b))
            assert res.feasible
            assert res.gap <= OBJ_TOL
            assert res.value == pytest.approx(binary_entropy(0.25) - 0.5,
                                              abs=1e-11)


class TestClosedForms:
    def test_example1_optimize(self, example1_pair):
        ens, _ = example1_pair
        res = optimize(ens, kind="two-node")
        assert res.feasible and res.gap <= OBJ_TOL
        assert res.lower_bound == res.value - res.gap
        assert res.value == pytest.approx(binary_entropy(0.25) - 0.5,
                                          abs=1e-11)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_cascade_lambda_sweep(self, lam):
        cfg = load_config(os.path.join(CONFIG_DIR,
                                       "cascade_lambda_sweep.json"))
        ens = build_ensemble(resolve_family(cfg))
        res = optimize(ens, kind="cascade", lam=lam,
                       max_merge_order=cfg["optimize"]["max_merge_order"])
        assert res.feasible and res.gap <= OBJ_TOL
        assert res.value == pytest.approx(
            1 + lam * (1 - binary_entropy(0.1)), abs=1e-11)


class TestUnhonourableSettings:
    # a weight on I(X;Z) exists only for a cascade, and there it must be a
    # finite, nonnegative number; a merge order below 1 tries no atom set
    @pytest.mark.parametrize("kind,lam", [
        ("two-node", 0.5), ("cascade", -0.5), ("cascade", float("inf")),
        ("cascade", float("nan")), ("cascade", 1e308)])
    def test_bad_lambda_is_rejected(self, example1_pair, kind, lam):
        ens, _ = example1_pair
        atoms = propose_atoms(ens, max_merge_order=1)
        with pytest.raises(CoordinationError, match="lambda must be"):
            minimize_conditional(ens, atoms, kind=kind, lam=lam)
        with pytest.raises(CoordinationError, match="lambda must be"):
            optimize(ens, kind=kind, lam=lam)

    def test_merge_order_below_one_is_rejected(self, example1_pair):
        with pytest.raises(CoordinationError, match="max_merge_order"):
            optimize(example1_pair[0], max_merge_order=0)

    # zero iterations would return the support point (0.7553 on Example 1,
    # whose minimum is 0.3113) as a feasible result
    @pytest.mark.parametrize("max_iters", [0, -2])
    def test_max_iters_below_one_is_rejected(self, example1_pair, max_iters):
        ens, _ = example1_pair
        atoms = propose_atoms(ens, max_merge_order=1)
        with pytest.raises(CoordinationError, match="max_iters"):
            minimize_conditional(ens, atoms, max_iters=max_iters)
        with pytest.raises(CoordinationError, match="max_iters"):
            optimize(ens, max_iters=max_iters)


class TestOptimizePipeline:
    def test_example1_full_pipeline(self, example1_pair):
        ens, _ = example1_pair
        res = optimize(ens, kind="two-node", max_merge_order=3)
        assert res.feasible
        assert res.value <= 0.3113 + 1e-3
        assert res.value < 1.5

    def test_product_target_is_free(self):
        ens, _ = phase_flip_pair(0.5)
        res = optimize(ens, kind="two-node", max_merge_order=2)
        assert res.feasible
        assert res.value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.1])
    def test_phase_flip_pipeline(self, p):
        ens, _ = phase_flip_pair(p)
        res = optimize(ens, kind="two-node", max_merge_order=2)
        assert res.feasible
        assert res.value == pytest.approx(1 - binary_entropy(p), abs=1e-6)

    def test_non_factorizable_target_certified_empty(self):
        x = Alphabet("X", ["x0"])
        correlated = DensityOperator(
            0.5 * tensor(KET0, KET0).matrix
            + 0.5 * tensor(KET1, KET1).matrix)
        ens = CqEnsemble(JointPmf([x], [1.0]), [correlated],
                         {"A": 2, "B": 2})
        res = optimize(ens, kind="two-node")
        assert not res.feasible
        assert res.certified_empty

    def test_pure_atom_value_dominates_merged(self, example1_pair):
        ens, _ = example1_pair
        full = propose_atoms(ens, max_merge_order=2)
        pure_only = AtomCandidateSet(
            atoms_b=tuple(a for a, p in zip(full.atoms_b, full.provenance_b)
                          if p == "spectral"),
            provenance_b=tuple(p for p in full.provenance_b
                               if p == "spectral"))
        res_pure = minimize_conditional(ens, pure_only, kind="two-node")
        res_full = minimize_conditional(ens, full, kind="two-node")
        assert res_pure.feasible and res_full.feasible
        assert res_pure.value >= res_full.value - 1e-9


class TestGridOracle:
    def test_example1_shared_atoms_match_oracle(self, example1_pair):
        ens, _ = example1_pair
        atoms = AtomCandidateSet(atoms_b=(KET0, KETP),
                                 provenance_b=("user", "user"))
        res = minimize_conditional(ens, atoms, kind="two-node")
        etas = [ens.conditional_part(i, "B").matrix for i in range(2)]
        oracle = grid_min_mutual_information(
            ens.source.table, [KET0.matrix, KETP.matrix], etas)
        assert oracle is not None
        assert oracle >= res.value - 1e-3

    def test_random_instances_never_beaten_by_grid(self):
        rng = np.random.default_rng(23)
        beaten = 0
        for trial in range(6):
            num_x = int(rng.integers(2, 4))
            num_y = int(rng.integers(2, 4))
            atoms = [random_pure(rng, 2) for _ in range(num_y)]
            cond = rng.dirichlet(np.ones(num_y), size=num_x)
            px = rng.dirichlet(np.ones(num_x))
            etas = [sum(c * a for c, a in zip(cond[i], atoms))
                    for i in range(num_x)]
            x = Alphabet("X", [f"x{i}" for i in range(num_x)])
            states = [tensor(DensityOperator.basis_state(2, 0),
                             DensityOperator(eta)) for eta in etas]
            ens = CqEnsemble(JointPmf([x], px), states, {"A": 2, "B": 2})
            cands = AtomCandidateSet(
                atoms_b=tuple(DensityOperator(a) for a in atoms),
                provenance_b=("user",) * num_y)
            res = minimize_conditional(ens, cands, kind="two-node")
            assert res.feasible
            oracle = grid_min_mutual_information(px, atoms, etas)
            assert oracle is not None
            if oracle < res.value - 1e-3:
                beaten += 1
        assert beaten == 0


class TestCascadeAndIsolatedOptimization:
    def test_cascade_scalarization(self):
        ens, ext = cascade_flip_pair(0.1)
        res = optimize(ens, kind="cascade", max_merge_order=2, lam=0.5)
        assert res.feasible
        assert res.rate_point is not None
        # the planted extension is admissible, so the optimizer cannot be
        # worse than its scalarized value
        from qcoord.coordination import cascade_rate_point
        pt = cascade_rate_point(ext)
        assert res.value <= pt.r12 + 0.5 * pt.r23 + 1e-6

    def test_isolated_restriction(self):
        ens = isolated_target()
        res = optimize(ens, kind="isolated", max_merge_order=2)
        assert res.feasible
        assert res.value == pytest.approx(1.0, abs=1e-11)
        assert res.gap <= OBJ_TOL
        assert res.lower_bound == res.value - res.gap
        assert res.iterations == 1
        assert res.rate_point is None
        # the top pool adds the merged atom (|0><0| + |1><1|) / 2
        assert res.conditional.shape == (2, 3)
        assert res.extension.kind == "isolated"
        report = validate_extension(res.extension, ens, tol=1e-6)
        assert report.passed

    @pytest.mark.parametrize("case", ["example1", 0.1, 0.25, 0.4])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_trivial_relay_is_the_two_node_solve(self, example1_pair, case,
                                                 lam):
        # a 1-dimensional C register: Z carries nothing, so the cascade
        # value I(X;YZ) + lam I(X;Z) is the two-node I(X;Y)
        if case == "example1":
            ens = example1_pair[0]
        else:
            ens = phase_flip_pair(case)[0]
        one = DensityOperator(np.ones((1, 1)))
        relay = CqEnsemble(ens.source, [tensor(s, one) for s in ens.states],
                           {**ens.register_dims, "C": 1})
        two = optimize(ens, kind="two-node")
        res = optimize(relay, kind="cascade", lam=lam)
        assert two.feasible and res.feasible
        assert res.value == pytest.approx(two.value, abs=1e-12)
        assert res.rate_point.r23 == pytest.approx(0.0, abs=1e-12)

    def test_isolated_varying_relay_reported_infeasible(self):
        x = Alphabet("X", ["x0", "x1"])
        states = [tensor(tensor(KET0, KET0), KET0),
                  tensor(tensor(KET1, KET1), KET1)]
        ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                         {"A": 2, "B": 2, "C": 2})
        res = optimize(ens, kind="isolated", max_merge_order=2)
        assert not res.feasible


def sweep_target():
    cfg = load_config(os.path.join(CONFIG_DIR, "cascade_lambda_sweep.json"))
    return build_ensemble(resolve_family(cfg))


def isolated_target():
    """B copies the source bit; C holds |+> whatever the bit."""
    x = Alphabet("X", ["x0", "x1"])
    states = [tensor(tensor(KET0, KET0), KETP),
              tensor(tensor(KET1, KET1), KETP)]
    return CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                      {"A": 2, "B": 2, "C": 2})


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's args."""
    real, calls = getattr(owner, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


class TestSharedFaces:
    # a weight sweep prepares each atom set's face once; each weight must
    # still give exactly what its own optimize call gives
    @pytest.mark.parametrize("case,kind,lams,order", [
        ("sweep", "cascade", [0.0, 0.5, 1.0, 2.0], 2),
        ("example1", "two-node", [0.0, 0.0], 3)])
    def test_sweep_equals_one_optimize_per_lambda(self, example1_pair, case,
                                                  kind, lams, order):
        ens = sweep_target() if case == "sweep" else example1_pair[0]
        swept = optimize_lambdas(ens, lams, kind=kind, max_merge_order=order)
        assert len(swept) == len(lams)
        for lam, res in zip(lams, swept):
            one = optimize(ens, kind=kind, lam=lam, max_merge_order=order)
            assert res.feasible and one.feasible
            assert res.value == one.value
            assert res.gap == one.gap
            assert res.iterations == one.iterations
            assert res.conditional.tobytes() == one.conditional.tobytes()

    def test_one_support_lp_per_atom_set_and_one_per_gap(self, monkeypatch):
        lps = counting(monkeypatch, optimizer, "linprog")
        gaps = counting(monkeypatch, optimizer._RateProgram, "fw_gap")
        faces = []
        real = optimizer._prepare

        def prepare(*args):
            faces.append(real(*args))
            return faces[-1]
        monkeypatch.setattr(optimizer, "_prepare", prepare)
        results = optimize_lambdas(sweep_target(), [0.0, 0.5, 1.0],
                                   kind="cascade", max_merge_order=2)
        feasible = sum(isinstance(f, optimizer._Face) for f in faces)
        assert all(r.feasible for r in results)
        assert feasible == len(faces) >= 1
        assert gaps and len(lps) == feasible + len(gaps)

    @pytest.mark.parametrize("case,kind,lam", [
        ("example1", "two-node", 0.0), ("sweep", "cascade", 0.5),
        ("sweep", "cascade", 1.0)])
    def test_block_gap_is_the_per_symbol_sum(self, example1_pair, case,
                                             kind, lam):
        from scipy.optimize import linprog
        ens = sweep_target() if case == "sweep" else example1_pair[0]
        face = optimizer._prepare(ens, propose_atoms(ens, 2), kind)
        program = optimizer._RateProgram(face, lam)
        p = face.p0               # interior of the face, and not optimal
        gap = program.fw_gap(p)
        assert gap > 1e-3
        # the oracle: one LP per source symbol, each bound summed
        grad = program.derivatives(p)[0] / np.log(2.0)
        oracle = 0.0
        for i, (a, b) in enumerate(face.supported):
            c = grad[face.xs == i]
            res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None),
                          method="highs",
                          options={"dual_feasibility_tolerance": 1e-10})
            y = res.eqlin.marginals
            oracle += (c @ p[face.xs == i] - b @ y
                       - min(0.0, np.min(c - a.T @ y)))
        assert gap == pytest.approx(oracle, abs=1e-12)


class TestOneFactorizationPass:
    def test_parts_are_traced_once_per_symbol(self, monkeypatch):
        ens = sweep_target()              # A, B, C: rest keeps (B, C)
        calls = counting(monkeypatch, coordination, "partial_trace")
        res = optimize(ens, kind="cascade", lam=0.5, max_merge_order=2)
        assert res.feasible
        nx = ens.x_alphabet.size
        assert sum(keep == [0] for _, _, keep in calls) == nx
        assert sum(keep == [1, 2] for _, _, keep in calls) == nx
        before = len(calls)
        assert ens.factorizes()
        assert validate_extension(res.extension, ens, tol=1e-6).passed
        assert len(calls) == before

    def test_isolated_validates_once_per_atom_set(self, monkeypatch):
        calls = counting(monkeypatch, optimizer, "validate_extension")
        res = optimize(isolated_target(), kind="isolated", max_merge_order=2)
        assert res.feasible
        assert len(calls) == 1
        assert all(ext.kind == "isolated" for ext, _ in calls)


def pool_case(name, example1_pair, example1_three_symbol):
    """(target, kind, lam) of a named case of the pool tests."""
    if name == "example1":
        return example1_pair[0], "two-node", 0.0
    if name == "example1_three_symbol":
        return example1_three_symbol[0], "two-node", 0.0
    if name == "sweep":
        return sweep_target(), "cascade", 0.5
    if name == "isolated":
        return isolated_target(), "isolated", 0.0
    if name == "cascade_flip":
        return cascade_flip_pair(0.1)[0], "cascade", 0.5
    return phase_flip_pair(float(name.split("_")[-1]))[0], "two-node", 0.0


POOL_CASES = ["example1", "example1_three_symbol", "sweep", "isolated",
              "phase_flip_0.1", "phase_flip_0.25", "phase_flip_0.4",
              "cascade_flip"]


class TestOnePool:
    # one solve on the pool at max_merge_order replaces the loop over
    # orders, which is sound because the pools nest
    @pytest.mark.parametrize("name", POOL_CASES)
    def test_pools_nest(self, example1_pair, example1_three_symbol, name):
        ens = pool_case(name, example1_pair, example1_three_symbol)[0]
        for order in (2, 3):
            low, top = propose_atoms(ens, order - 1), propose_atoms(ens, order)
            for lows, tops in ((low.atoms_b, top.atoms_b),
                               (low.atoms_c or (), top.atoms_c or ())):
                assert all(contains_atom(tops, a.matrix, tol=DEDUP_TOL)
                           for a in lows)

    @pytest.mark.parametrize("name", POOL_CASES)
    def test_no_worse_than_a_lower_pool(self, example1_pair,
                                        example1_three_symbol, name):
        ens, kind, lam = pool_case(name, example1_pair,
                                   example1_three_symbol)
        res = optimize(ens, kind=kind, lam=lam, max_merge_order=3)
        assert res.feasible
        for order in (1, 2):
            low = minimize_conditional(ens, propose_atoms(ens, order),
                                       kind=kind, lam=lam)
            assert res.value <= low.value + OBJ_TOL

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("lams", [[0.5], [0.0, 0.5, 1.0]])
    def test_one_proposal_and_one_face_per_call(self, monkeypatch, order,
                                                lams):
        proposals = counting(monkeypatch, optimizer, "propose_atoms")
        faces = counting(monkeypatch, optimizer, "_prepare")
        results = optimize_lambdas(sweep_target(), lams, kind="cascade",
                                   max_merge_order=order)
        assert len(results) == len(lams)
        assert [args[1] for args in proposals] == [order]
        assert len(faces) == 1
