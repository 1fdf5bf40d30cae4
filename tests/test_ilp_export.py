"""Pinned export bytes and the row invariants the fast build and writers
rely on.

The digests were recorded before build_ilp moved to arithmetic positions and
the writers to per-write format memos. Those changes must leave every byte
of the MPS and LP text alone.
"""

import hashlib

import pytest

from qkmp.harness import get_config
from qkmp.ilp import (
    SENSE_GE,
    SENSE_LE,
    IlpModel,
    LinearRow,
    build_ilp,
    write_lp,
    write_mps,
)

# (config, seed, sha256 of write_mps, sha256 of write_lp)
EXPORT_PINS = [
    (
        "q1-5",
        10500,
        "f873e92c4f077cf0ec524f1bf663e59aedb8ae4995d284f84a51115a1fce56e8",
        "5b20f0e1ec09b1821d1f05414b4a78fddb0559cb3a574b96966a2e9db90b7b6b",
    ),
    (
        "q1-9",
        10900,
        "76d23197b0d5054a8ee66ad37c3eb31559296fe1e59a11b0f98ae35343d854fa",
        "a0fbd24a948d8e3502c3d4f478bb9a7a543c035ebd42d740416825c066b4d514",
    ),
    (
        "q2-12",
        21200,
        "c409c17dddabb1148a12a8d77e764ddc47c306968dba36c8fe48358b91765096",
        "ba4f5c46a8f15cf2e989fdd3941c37045d65f95cff7be5ef0babf3ba297d71bc",
    ),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "config,seed,mps_digest,lp_digest", EXPORT_PINS, ids=[p[0] for p in EXPORT_PINS]
)
def test_export_bytes_are_pinned(config, seed, mps_digest, lp_digest):
    model = build_ilp(get_config(config).build_instance(seed))
    assert sha256(write_mps(model)) == mps_digest
    assert sha256(write_lp(model)) == lp_digest


def signed_zero_model(first_rhs: float, second_rhs: float) -> IlpModel:
    rows = (
        LinearRow("r1", ((0, 1.0),), SENSE_LE, first_rhs),
        LinearRow("r2", ((1, 1.0),), SENSE_LE, second_rhs),
    )
    return IlpModel("z", ("a", "b"), ((0, 1.0),), rows)


MPS_HEAD = (
    "NAME z\nOBJSENSE\n MAX\nROWS\n N obj\n L r1\n L r2\n"
    "COLUMNS\n a obj 1.0\n a r1 1.0\n b r2 1.0\nRHS\n"
)
MPS_TAIL = "BOUNDS\n BV BND a\n BV BND b\nENDATA\n"
LP_HEAD = "\\ name=z\nMaximize\nobj: 1.0 a\nSubject To\n"
LP_TAIL = "Binary\n a\n b\nEnd\n"


def test_signed_zero_rhs_keeps_its_sign_in_either_order():
    """0.0 and -0.0 compare and hash equal, so a float-keyed format memo
    that saw one first would write it for the other too."""
    assert write_mps(signed_zero_model(0.0, -0.0)) == (
        MPS_HEAD + " RHS r1 0.0\n RHS r2 -0.0\n" + MPS_TAIL
    )
    assert write_mps(signed_zero_model(-0.0, 0.0)) == (
        MPS_HEAD + " RHS r1 -0.0\n RHS r2 0.0\n" + MPS_TAIL
    )
    assert write_lp(signed_zero_model(0.0, -0.0)) == (
        LP_HEAD + "r1: 1.0 a <= 0.0\nr2: 1.0 b <= -0.0\n" + LP_TAIL
    )
    assert write_lp(signed_zero_model(-0.0, 0.0)) == (
        LP_HEAD + "r1: 1.0 a <= -0.0\nr2: 1.0 b <= 0.0\n" + LP_TAIL
    )


class TestRowNormalization:
    def test_unsorted_row_with_a_repeated_position_sorts_stably(self):
        row = LinearRow("r", ((3, 1.0), (1, 2.0), (3, -1.0), (0, 0.0), (1, 5)), SENSE_GE, 1)
        assert row.coeffs == ((1, 2.0), (1, 5.0), (3, 1.0), (3, -1.0))
        assert row.rhs == 1.0 and type(row.rhs) is float
        # already int/float pairs without zeros, only out of order
        row = LinearRow("r", ((3, 1.0), (1, 2.0), (3, -1.0), (1, 5.0)), SENSE_GE, 1.0)
        assert row.coeffs == ((1, 2.0), (1, 5.0), (3, 1.0), (3, -1.0))

    def test_sorted_row_is_stored_unchanged(self):
        coeffs = ((0, -1.0), (2, -1.0), (2, 3.0), (7, 1.0))
        assert LinearRow("r", coeffs, SENSE_LE, 0.0).coeffs is coeffs

    def test_sorted_row_is_still_coerced_and_cleaned(self):
        row = LinearRow("r", [(0, 1), (2, 0.0), (True, 2.5), [5, -0.0], (6, 2)], SENSE_LE, 0)
        assert row.coeffs == ((0, 1.0), (1, 2.5), (6, 2.0))
        assert all(type(p) is int and type(c) is float for p, c in row.coeffs)
        assert all(type(pair) is tuple for pair in row.coeffs)

    def test_objective_is_normalized_like_a_row(self):
        model = IlpModel("m", ("a", "b", "c"), ((2, 1), (0, 0.0), (1, -2.0)), ())
        assert model.objective == ((1, -2.0), (2, 1.0))


class TestModelRangeCheck:
    @pytest.mark.parametrize("pos", [-1, 3], ids=["negative", "num_variables"])
    def test_row_position_out_of_range_is_rejected(self, pos):
        row = LinearRow("r", ((pos, 1.0), (1, 1.0)), SENSE_LE, 1.0)
        with pytest.raises(ValueError, match="row r references unknown variable"):
            IlpModel("m", ("a", "b", "c"), (), (row,))

    @pytest.mark.parametrize("pos", [-1, 3], ids=["negative", "num_variables"])
    def test_objective_position_out_of_range_is_rejected(self, pos):
        with pytest.raises(ValueError, match="objective references unknown variable"):
            IlpModel("m", ("a", "b", "c"), ((1, 1.0), (pos, 1.0)), ())

    def test_positions_at_both_ends_are_accepted(self):
        row = LinearRow("r", ((0, 1.0), (2, 1.0)), SENSE_LE, 1.0)
        model = IlpModel("m", ("a", "b", "c"), ((0, 1.0), (2, 1.0)), (row,))
        assert model.num_rows == 1
