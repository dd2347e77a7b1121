import warnings

import numpy as np
import pytest
from hypothesis import settings

from qcoord.classical import Alphabet, JointPmf, pmf_from_assignments
from qcoord.coordination import CqEnsemble, Extension, validate_extension
from qcoord.quantum import DensityOperator, tensor

# hypothesis profiles: the suite runs "tier1"; CI's config fuzz step runs
# 1,000 mutated configs with --hypothesis-profile config-fuzz.  Tests that
# set max_examples themselves keep their own count.
settings.register_profile("tier1", max_examples=200, deadline=None)
settings.register_profile("config-fuzz", max_examples=1000, deadline=None)
settings.load_profile("tier1")

# hypothesis imports extra._patching to print a falsifying example; its libcst
# import warns (DeprecationWarning from mypy_extensions), which -W error
# turns into an INTERNALERROR that hides the example.  Imported once here
# with that warning ignored, the module is already loaded when needed.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis prints no patch either
        pass

KET0 = DensityOperator.pure([1, 0], "B")
KET1 = DensityOperator.pure([0, 1], "B")
KETP = DensityOperator.pure([1, 1], "B")
KETM = DensityOperator.pure([1, -1], "B")
ETA = DensityOperator(0.5 * KET0.matrix + 0.5 * KETP.matrix)


@pytest.fixture
def basis_states():
    return KET0, KET1, KETP, KETM, ETA


@pytest.fixture
def example1_pair():
    """The two-symbol qubit-pair ensemble with the shared-atom extension.

    Source bit -> |0><0| x |0><0| or |1><1| x eta, with the extension on
    atoms {|0>, |+>} whose rate is h(1/4) - 1/2.
    """
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y0", "y+"])
    source = JointPmf([x], [0.5, 0.5])
    ens = CqEnsemble(source, [tensor(KET0, KET0), tensor(KET1, ETA)],
                     {"A": 2, "B": 2})
    joint = pmf_from_assignments([x, y], {
        ("x0", "y0"): 0.5, ("x1", "y0"): 0.25, ("x1", "y+"): 0.25})
    ext = Extension(joint, [KET0, KET1], [KET0, KETP], kind="two-node")
    assert validate_extension(ext, ens).passed
    return ens, ext


@pytest.fixture
def example1_three_symbol():
    """The same qubit pair as a three-symbol ensemble with Y = X."""
    x = Alphabet("X", ["x0", "x1", "x2"])
    y = Alphabet("Y", ["y0", "y1", "y2"])
    source = JointPmf([x], [0.5, 0.25, 0.25])
    ens = CqEnsemble(
        source,
        [tensor(KET0, KET0), tensor(KET1, KET0), tensor(KET1, KETP)],
        {"A": 2, "B": 2})
    joint = pmf_from_assignments([x, y], {
        ("x0", "y0"): 0.5, ("x1", "y1"): 0.25, ("x2", "y2"): 0.25})
    ext = Extension(joint, [KET0, KET1, KET1], [KET0, KET0, KETP],
                    kind="two-node")
    assert validate_extension(ext, ens).passed
    return ens, ext


def phase_flip_pair(p: float):
    """Conjugate-basis dephasing pair with the {|+>, |->} extension."""
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y+", "y-"])
    b0 = DensityOperator((1 - p) * KETP.matrix + p * KETM.matrix)
    b1 = DensityOperator(p * KETP.matrix + (1 - p) * KETM.matrix)
    ens = CqEnsemble(JointPmf([x], [0.5, 0.5]),
                     [tensor(KET0, b0), tensor(KET1, b1)], {"A": 2, "B": 2})
    joint = JointPmf([x, y], np.array([[(1 - p) / 2, p / 2],
                                       [p / 2, (1 - p) / 2]]))
    ext = Extension(joint, [KET0, KET1], [KETP, KETM], kind="two-node")
    assert validate_extension(ext, ens).passed
    return ens, ext


def cascade_flip_pair(p: float = 0.1):
    """Cascade target: B copies the source bit, C sees it through a flip."""
    x = Alphabet("X", ["x0", "x1"])
    y = Alphabet("Y", ["y0", "y1"])
    z = Alphabet("Z", ["z0", "z1"])
    c_states = [
        DensityOperator(np.diag([1 - p, p]).astype(complex)),
        DensityOperator(np.diag([p, 1 - p]).astype(complex)),
    ]
    states = [
        tensor(tensor(KET0, KET0), c_states[0]),
        tensor(tensor(KET1, KET1), c_states[1]),
    ]
    ens = CqEnsemble(JointPmf([x], [0.5, 0.5]), states,
                     {"A": 2, "B": 2, "C": 2})
    cube = np.zeros((2, 2, 2))
    for xi in range(2):
        for zi in range(2):
            cube[xi, xi, zi] = 0.5 * (p if zi != xi else 1 - p)
    joint = JointPmf([x, y, z], cube)
    ext = Extension(joint, [KET0, KET1], [KET0, KET1], [KET0, KET1],
                    kind="cascade")
    assert validate_extension(ext, ens).passed
    return ens, ext


def degenerate_z_cascade(two_node_pair):
    """Embed a two-node pair as a cascade with a scalar relay register."""
    ens, ext = two_node_pair
    one = DensityOperator([[1.0]])
    states = [tensor(s, one) for s in ens.states]
    ens3 = CqEnsemble(ens.source, states, {"A": 2, "B": 2, "C": 1})
    z = Alphabet("Z", ["z0"])
    cube = ext.joint.table[:, :, None]
    joint = JointPmf(list(ext.joint.variables) + [z], cube)
    ext3 = Extension(joint, list(ext.atoms_a), list(ext.atoms_b), [one],
                     kind="cascade")
    assert validate_extension(ext3, ens3).passed
    return ens3, ext3
