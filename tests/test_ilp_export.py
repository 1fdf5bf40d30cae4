"""Pinned export bytes and the row invariants the fast build and writers
rely on.

The digests were recorded before build_ilp moved to arithmetic positions and
checked row families, and the writers to per-write text tables. Those
changes must leave every byte of the MPS and LP text alone.
"""

import hashlib
from dataclasses import FrozenInstanceError

import pytest

from qkmp.graph import make_graph
from qkmp.harness import get_config
from qkmp.ilp import (
    SENSE_GE,
    SENSE_LE,
    IlpFormatError,
    IlpModel,
    LinearRow,
    build_ilp,
    read_lp,
    read_mps,
    write_lp,
    write_mps,
)
from qkmp.instance import KmpInstance

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


def rows_view(model: IlpModel) -> tuple[LinearRow, ...]:
    """The model's row columns as the LinearRows its constructor takes."""
    columns = model.row_names, model.row_coeffs, model.row_senses, model.row_rhs
    return tuple(map(LinearRow, *columns))


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


HAND_BUILT = {
    # p and alpha ints: an int neighborhood cap, which the row must hold as float
    "int-p-alpha": lambda: KmpInstance.uniform(
        make_graph(3, [(0, 1), (0, 2), (1, 2)]), 2, 1, 1, 3.0, 2, alpha=2
    ),
    # no edges: empty neighborhood rows (a disconnected graph is refused)
    "one-vertex": lambda: KmpInstance.uniform(make_graph(1, []), 2, 1, 0.5, 2.0, 1),
    "q3": lambda: KmpInstance.uniform(
        make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 4, 3, 0.5, 3.0, 2
    ),
}
ROW_CASES = [lambda c=c, s=s: get_config(c).build_instance(s) for c, s, _, _ in EXPORT_PINS]
ROW_CASES += HAND_BUILT.values()


@pytest.mark.parametrize(
    "make", ROW_CASES, ids=[p[0] for p in EXPORT_PINS] + list(HAND_BUILT)
)
def test_every_built_row_is_already_normalized(make):
    """build_ilp makes most rows without the public constructor's per-row
    pass; each must equal the row that pass makes from a list of its pairs."""
    model = build_ilp(make())
    columns = model.row_names, model.row_coeffs, model.row_senses, model.row_rhs
    for name, coeffs, sense, rhs in zip(*columns):
        row = LinearRow(name, list(coeffs), sense, rhs)
        assert (row.coeffs, row.rhs) == (coeffs, rhs), name
        assert all(type(p) is int and type(c) is float for p, c in coeffs), name
        assert type(rhs) is float, name


@pytest.mark.parametrize(
    "make", ROW_CASES, ids=[p[0] for p in EXPORT_PINS] + list(HAND_BUILT)
)
def test_row_columns_and_rows_view_agree(make):
    """The public constructor rebuilds the built model from its rows."""
    model = build_ilp(make())
    assert IlpModel(model.name, model.variables, model.objective, rows_view(model)) == model
    with pytest.raises(FrozenInstanceError):
        model.row_names = ()


def test_round_trips_give_back_the_built_model():
    model = build_ilp(get_config("q1-9").build_instance(10900))
    assert [read_mps(write_mps(model)), read_lp(write_lp(model))] == [model, model]


# one coefficient leads one row and follows in another, one leads and follows
# in the objective, a negative one leads, 0.25 repeats, a rhs is fractional,
# and variable c has no column
TABLES_MODEL = IlpModel(
    "w",
    ("a", "b", "c", "d"),
    ((0, 2.0), (1, 2.0)),
    (
        LinearRow("r1", ((0, -0.5), (3, 0.25)), SENSE_LE, 1.75),
        LinearRow("r2", ((1, 0.25), (3, -0.5)), SENSE_GE, -0.5),
    ),
)
TABLES_MPS = """NAME w
OBJSENSE
 MAX
ROWS
 N obj
 L r1
 G r2
COLUMNS
 a obj 2.0
 a r1 -0.5
 b obj 2.0
 b r2 0.25
 d r1 0.25
 d r2 -0.5
RHS
 RHS r1 1.75
 RHS r2 -0.5
BOUNDS
 BV BND a
 BV BND b
 BV BND c
 BV BND d
ENDATA
"""
TABLES_LP = """\\ name=w
Maximize
obj: 2.0 a + 2.0 b
Subject To
r1: -0.5 a + 0.25 d <= 1.75
r2: 0.25 b - 0.5 d >= -0.5
Binary
 a
 b
 c
 d
End
"""


def test_writer_tables_spell_every_term_and_rhs():
    assert write_mps(TABLES_MODEL) == TABLES_MPS
    assert write_lp(TABLES_MODEL) == TABLES_LP
    assert read_mps(TABLES_MPS) == TABLES_MODEL
    assert read_lp(TABLES_LP) == TABLES_MODEL


def test_read_mps_places_columns_in_bounds_order():
    text = TABLES_MPS.replace(" BV BND a\n", "").replace(" BV BND d\n", " BV BND d\n BV BND a\n")
    back = read_mps(text)
    assert back.variables == ("b", "c", "d", "a")
    assert back.objective == ((0, 2.0), (3, 2.0))
    assert rows_view(back) == (
        LinearRow("r1", ((2, 0.25), (3, -0.5)), SENSE_LE, 1.75),
        LinearRow("r2", ((0, 0.25), (2, -0.5)), SENSE_GE, -0.5),
    )


@pytest.mark.parametrize(
    "line,edit,error",
    [
        (" a r1 -0.5", " a r1 -0.5 r2", "odd COLUMNS entry"),
        (" RHS r1 1.75", " RHS r1 1.75 r2", "odd RHS entry"),
        (" BV BND a", " UP BND a 1", "only BV bounds"),
        (" BV BND d", None, "column 'd' has no BV bound"),
        (" d r2 -0.5", " d r3 -0.5", "entry for undeclared row 'r3'"),
        (" RHS r2 -0.5", " RHS r3 -0.5", "RHS entry for undeclared row 'r3'"),
        (" BV BND c", " BV BND b", "duplicate variable"),
        (" G r2", " E r2", "unsupported row type"),
        (" N obj", None, "no objective row"),
        (" a r1 -0.5", " a r1 -0.5x", "bad number '-0.5x'"),
        (" RHS r1 1.75", " RHS r1 abc", "bad number 'abc'"),
        (" L r1", " L r1\n L r1", "duplicate row name 'r1'"),
        ("OBJSENSE", "OBJSENSE MAX", "not a section header: 'OBJSENSE MAX'"),
        ("ROWS", "rows", "not a section header: 'rows'"),
        (" N obj", "* N obj", "not a section header: '\\* N obj'"),
        (" a obj 2.0", "\ta obj 2.0", "not a section header"),
        (" b obj 2.0", " MARKER 'MARKER' 'INTORG'", "entry for undeclared row"),
        ("ENDATA", None, "does not end with ENDATA"),
        (" RHS r1 1.75", " RHS obj 1.75", "RHS entry for the objective row"),
    ],
    ids=[
        "odd-columns",
        "odd-rhs",
        "non-bv-bound",
        "column-without-bv",
        "columns-undeclared-row",
        "rhs-undeclared-row",
        "duplicate-bv",
        "row-type",
        "no-n-row",
        "bad-number",
        "bad-rhs-number",
        "duplicate-row",
        "inline-objsense",
        "lower-case-header",
        "comment",
        "tab-indent",
        "marker",
        "no-endata",
        "objective-rhs",
    ],
)
def test_read_mps_refuses_each_one_line_edit(line, edit, error):
    lines = TABLES_MPS.splitlines()
    at = lines.index(line)
    lines[at : at + 1] = [edit] if edit else []
    with pytest.raises(IlpFormatError, match=error):
        read_mps("\n".join(lines) + "\n")


R1 = "r1: -0.5 a + 0.25 d <= 1.75"
R2 = "r2: 0.25 b - 0.5 d >= -0.5"


@pytest.mark.parametrize(
    "line,edit,error",
    [
        (R1, "-0.5 a + 0.25 d <= 1.75", "lacks a label"),
        (R2, "r2: 0.25 b - 0.5 d -0.5", "constraint without sense"),
        ("obj: 2.0 a + 2.0 b", "obj: 2.0 a + 2.0", "dangling coefficient"),
        ("obj: 2.0 a + 2.0 b", "obj: 2.0 a * 2.0 b", r"expected '\+' or '-'"),
        (R1, "r1: -0.5 a + 0.25 e <= 1.75", "column 'e' has no BV bound"),
        (" c", " b", "duplicate variable 'b'"),
        (" c", "c", "unexpected line in Binary section: 'c'"),
        ("Maximize", "Minimize", "unexpected line in no section: 'Minimize'"),
        ("Subject To", "subject to", "unexpected line in Maximize section: 'subject to'"),
        ("\\ name=w", "name=w", "unexpected line in no section: 'name=w'"),
        (R1, "r1: -0.5 a + 0.25 d <= abc", "bad number 'abc'"),
        (R2, "r1: 0.25 b - 0.5 d >= -0.5", "duplicate row name 'r1'"),
        ("obj: 2.0 a + 2.0 b", None, "no objective line"),
        ("End", None, "does not end with End"),
    ],
    ids=[
        "no-label",
        "no-sense",
        "dangling-coefficient",
        "bad-sign",
        "undeclared-variable",
        "duplicate-binary",
        "unindented-binary",
        "minimize",
        "lower-case-header",
        "outside-a-section",
        "bad-number",
        "duplicate-row",
        "no-objective",
        "no-end",
    ],
)
def test_read_lp_refuses_each_one_line_edit(line, edit, error):
    lines = TABLES_LP.splitlines()
    at = lines.index(line)
    lines[at : at + 1] = [edit] if edit else []
    with pytest.raises(IlpFormatError, match=error):
        read_lp("\n".join(lines) + "\n")


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
