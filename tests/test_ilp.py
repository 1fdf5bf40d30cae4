import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmp.graph import make_graph
from qkmp.ilp import (
    OBJ_ROW_NAME,
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
    x_name,
    y_name,
    z_name,
)
from qkmp.instance import KmpInstance

from helpers import (
    linear_optimum_by_joint_enumeration,
    linear_optimum_by_x_enumeration,
    quadratic_optimum,
    random_battery_instance,
)

TRIANGLE = make_graph(3, [(0, 1), (0, 2), (1, 2)])
PATH3 = make_graph(3, [(0, 1), (1, 2)])
SINGLE_EDGE = make_graph(2, [(0, 1)])


def edge_instance(key_count=1, q=1):
    return KmpInstance.uniform(
        SINGLE_EDGE, key_count=key_count, q=q, p=1.0, capacity=4.0, usage_limit=2
    )


class TestLinearRow:
    def test_drops_zeros_and_sorts(self):
        row = LinearRow("r", ((3, 1.0), (1, 0.0), (0, -2.0)), SENSE_LE, 1)
        assert row.coeffs == ((0, -2.0), (3, 1.0))
        assert row.rhs == 1.0

    def test_rejects_unknown_sense(self):
        with pytest.raises(ValueError):
            LinearRow("r", (), "==", 0.0)


class TestIlpModel:
    def test_rejects_duplicate_variables(self):
        with pytest.raises(ValueError):
            IlpModel("m", ("a", "a"), (), ())

    def test_rejects_duplicate_row_names(self):
        rows = (
            LinearRow("r", (), SENSE_LE, 0.0),
            LinearRow("r", (), SENSE_LE, 0.0),
        )
        with pytest.raises(ValueError):
            IlpModel("m", ("a",), (), rows)

    def test_rejects_unknown_variable_reference(self):
        with pytest.raises(ValueError):
            IlpModel("m", ("a",), ((5, 1.0),), ())

    def test_satisfied_checks_length(self):
        m = IlpModel("m", ("a",), ((0, 1.0),), ())
        with pytest.raises(ValueError):
            m.satisfied([0, 1])

    def test_satisfied_and_objective(self):
        rows = (
            LinearRow("le", ((0, 1.0), (1, 1.0)), SENSE_LE, 1.0),
            LinearRow("ge", ((0, 1.0),), SENSE_GE, 0.0),
        )
        m = IlpModel("m", ("a", "b"), ((0, 2.0), (1, 1.0)), rows)
        assert m.satisfied([1, 0])
        assert not m.satisfied([1, 1])
        assert m.objective_value([1, 0]) == 2.0


class TestBuildIlp:
    def test_variable_count_formula(self):
        # tree on 10 vertices: 10*10 + 9 + 9*10 = 199
        path10 = make_graph(10, [(i, i + 1) for i in range(9)])
        inst = KmpInstance.uniform(path10, key_count=10, q=1, p=0.3, capacity=5.0, usage_limit=3)
        model = build_ilp(inst)
        assert model.num_variables == 199
        # n capacity + |E| link + n*K neighborhood + 3*|E|*K envelope + K usage
        assert model.num_rows == 10 + 9 + 100 + 3 * 90 + 10

    def test_single_edge_row_count(self):
        model = build_ilp(edge_instance())
        assert model.num_rows == 9
        assert model.num_variables == 4

    def test_variable_order(self):
        inst = KmpInstance.uniform(PATH3, key_count=2, q=1, p=1.0, capacity=4.0, usage_limit=3)
        model = build_ilp(inst)
        expected = [x_name(i, k) for i in range(3) for k in range(2)]
        expected += [z_name(0, 1), z_name(1, 2)]
        expected += [y_name(0, 1, 0), y_name(0, 1, 1), y_name(1, 2, 0), y_name(1, 2, 1)]
        assert list(model.variables) == expected

    def test_link_row_scales_with_q(self):
        model = build_ilp(edge_instance(key_count=2, q=2))
        link = model.row_names.index("link_0_1")
        z_pos = model.var_index[z_name(0, 1)]
        assert model.row_senses[link] == SENSE_GE and model.row_rhs[link] == 0.0
        assert (z_pos, -2.0) in model.row_coeffs[link]

    def test_neighborhood_rhs_matches_instance(self):
        inst = KmpInstance.uniform(PATH3, key_count=1, q=1, p=0.3, capacity=4.0, usage_limit=3)
        model = build_ilp(inst)
        for i in range(3):
            row = model.row_names.index(f"nbr_{i}_0")
            assert model.row_rhs[row] == inst.neighborhood_cap(i)

    def test_objective_is_secure_edge_sum(self):
        inst = KmpInstance.uniform(TRIANGLE, key_count=1, q=1, p=1.0, capacity=1.0, usage_limit=3)
        model = build_ilp(inst)
        positions = {pos for pos, c in model.objective}
        assert positions == {model.var_index[z_name(i, j)] for i, j in TRIANGLE.edges}
        assert all(c == 1.0 for _, c in model.objective)


class TestLinearizationEquivalence:
    """Two routes to the optimum must meet: full joint 0/1 enumeration of the
    linear model, and x-pattern enumeration with product-pinned completions.
    Both are compared to the quadratic-form reference."""

    @pytest.mark.parametrize(
        "graph,key_count,q",
        [
            (SINGLE_EDGE, 1, 1),
            (SINGLE_EDGE, 2, 2),
            (PATH3, 1, 1),
            (TRIANGLE, 1, 1),
            (PATH3, 2, 1),
            (PATH3, 2, 2),
        ],
    )
    def test_micro_models_joint_vs_pinned_vs_quadratic(self, graph, key_count, q):
        inst = KmpInstance.uniform(
            graph, key_count=key_count, q=q, p=0.5, capacity=2.0, usage_limit=2
        )
        joint = linear_optimum_by_joint_enumeration(inst)
        pinned = linear_optimum_by_x_enumeration(inst)
        quad = quadratic_optimum(inst)
        assert joint == pinned == quad

    def test_random_instances_pinned_vs_quadratic(self):
        rng = random.Random(1207)
        for _ in range(6):
            inst = random_battery_instance(rng)
            assert linear_optimum_by_x_enumeration(inst) == quadratic_optimum(inst)


EMPTY = IlpModel(name="empty", variables=(), objective=(), rows=())
ONE_VAR = IlpModel(
    name="one",
    variables=("x",),
    objective=((0, 1.0),),
    rows=(LinearRow(name="r1", coeffs=((0, 1.0),), sense=SENSE_LE, rhs=1.0),),
)


class TestMpsFormat:
    def test_empty_skeleton(self):
        assert write_mps(EMPTY) == (
            "NAME empty\nOBJSENSE\n MAX\nROWS\n N obj\nCOLUMNS\nRHS\nBOUNDS\nENDATA\n"
        )

    def test_single_variable_column_entry(self):
        text = write_mps(ONE_VAR)
        assert " x obj 1.0" in text.splitlines()
        assert " BV BND x" in text.splitlines()

    def test_row_senses(self):
        model = build_ilp(edge_instance())
        lines = write_mps(model).splitlines()
        assert " G link_0_1" in lines
        assert " L cap_0" in lines

    def test_deterministic(self):
        model = build_ilp(edge_instance(key_count=2))
        assert write_mps(model) == write_mps(model)

    def test_round_trip_triangle(self):
        inst = KmpInstance.uniform(TRIANGLE, key_count=2, q=1, p=0.4, capacity=3.0, usage_limit=3)
        model = build_ilp(inst)
        assert read_mps(write_mps(model)) == model

    def test_reader_rejects_minimization(self):
        text = write_mps(ONE_VAR).replace(" MAX", " MIN")
        with pytest.raises(IlpFormatError):
            read_mps(text)

    def test_reader_rejects_garbage(self):
        with pytest.raises(IlpFormatError):
            read_mps("this is not a model\n in any format\n")


class TestLpFormat:
    def test_empty_skeleton(self):
        assert write_lp(EMPTY) == "\\ name=empty\nMaximize\nobj:\nSubject To\nEnd\n"

    def test_single_variable(self):
        assert write_lp(ONE_VAR) == (
            "\\ name=one\nMaximize\nobj: 1.0 x\nSubject To\n"
            "r1: 1.0 x <= 1.0\nBinary\n x\nEnd\n"
        )

    def test_ge_row_prints_rhs_on_the_right(self):
        model = build_ilp(edge_instance())
        lines = write_lp(model).splitlines()
        assert "ylo_0_1_0: -1.0 x_0_0 - 1.0 x_1_0 + 1.0 y_0_1_0 >= -1.0" in lines

    def test_deterministic(self):
        model = build_ilp(edge_instance(key_count=3))
        assert write_lp(model) == write_lp(model)

    def test_round_trip_triangle(self):
        inst = KmpInstance.uniform(TRIANGLE, key_count=2, q=2, p=0.6, capacity=3.0, usage_limit=3)
        model = build_ilp(inst)
        assert read_lp(write_lp(model)) == model

    def test_round_trip_empty_row(self):
        # a row with no surviving terms is written with a zero filler term
        model = IlpModel(
            "m",
            ("a", "b"),
            ((0, 1.0),),
            (LinearRow("blank", (), SENSE_LE, 2.0),),
        )
        text = write_lp(model)
        assert "blank: 0.0 a <= 2.0" in text.splitlines()
        assert read_lp(text) == model

    def test_reader_rejects_garbage(self):
        with pytest.raises(IlpFormatError):
            read_lp("once upon a time\n")


@pytest.mark.parametrize("writer,reader", [(write_mps, read_mps), (write_lp, read_lp)])
def test_random_models_round_trip(writer, reader):
    rng = random.Random(88)
    for _ in range(8):
        inst = random_battery_instance(rng)
        model = build_ilp(inst)
        assert reader(writer(model)) == model


def assert_round_trips(model):
    """Both formats read back an equal model (name included) and write the
    same bytes again."""
    for writer, reader in [(write_mps, read_mps), (write_lp, read_lp)]:
        text = writer(model)
        back = reader(text)
        assert back == model, writer.__name__
        assert writer(back) == text, writer.__name__


class TestNamesRoundTrip:
    """Names that one of the grammars splits or reserves."""

    def test_model_name_with_inner_spaces(self):
        assert_round_trips(IlpModel("my model", ("a",), ((0, 1.0),), ()))

    def test_variable_named_none_keeps_its_terms(self):
        # the LP filler term of the empty row reads "0.0 none" here too
        rows = (
            LinearRow("r", ((0, 2.0), (1, -1.0)), SENSE_LE, 1.0),
            LinearRow("blank", (), SENSE_GE, 0.0),
        )
        model = IlpModel("m", ("none", "b"), ((0, 1.0),), rows)
        assert "blank: 0.0 none >= 0.0" in write_lp(model).splitlines()
        assert_round_trips(model)

    @pytest.mark.parametrize("name", ["end", "End", "Binary"])
    def test_variable_named_like_a_section_keyword(self, name):
        rows = (LinearRow("r", ((0, 1.0), (1, 1.0)), SENSE_LE, 1.0),)
        assert_round_trips(IlpModel("m", ("a", name), ((1, 1.0),), rows))

    def test_row_name_with_a_colon(self):
        rows = (LinearRow("cap:0", ((0, 1.0),), SENSE_LE, 1.0),)
        assert_round_trips(IlpModel("m", ("a",), ((0, 1.0),), rows))

    def test_model_name_with_leading_and_inner_whitespace(self):
        assert_round_trips(IlpModel(" my\tmodel", ("a",), ((0, 1.0),), ()))


class TestNameRules:
    """Names that a writer would put into text its reader refuses or reads
    back changed are refused when the model is made."""

    @pytest.mark.parametrize("name", ["a b", "", "a\tb", "a\u00a0b", "a\n", 3])
    def test_variable_name_must_be_whitespace_free(self, name):
        with pytest.raises(ValueError, match="variable name .* is empty or contains whitespace"):
            IlpModel("m", ("x", name), (), ())

    @pytest.mark.parametrize("name", ["r 1", "", "r\x1c1", 3])
    def test_row_name_must_be_whitespace_free(self, name):
        rows = (LinearRow("r0", (), SENSE_LE, 0.0), LinearRow(name, (), SENSE_LE, 0.0))
        with pytest.raises(ValueError, match="row name .* is empty or contains whitespace"):
            IlpModel("m", ("a",), (), rows)

    @pytest.mark.parametrize("name", ["m ", "m\n", "my\nmodel", "m\u2028x", "m\t", None, 3])
    def test_model_name_must_be_one_line_without_trailing_whitespace(self, name):
        with pytest.raises(ValueError, match="spans lines or ends in whitespace"):
            IlpModel(name, ("a",), (), ())

    @pytest.mark.parametrize(
        "reader,text",
        [
            (read_mps, write_mps(ONE_VAR).replace("NAME one", "NAME one ")),
            (read_lp, write_lp(ONE_VAR).replace("\nr1:", "\n:")),
            (read_lp, write_lp(ONE_VAR).replace("Binary\n x", "Binary\n x\n ")),
        ],
        ids=["mps-trailing-space", "lp-empty-row", "lp-empty-variable"],
    )
    def test_readers_refuse_the_same_names(self, reader, text):
        with pytest.raises(IlpFormatError, match="whitespace"):
            reader(text)


# whitespace-free names, among them the words and characters the LP and MPS
# grammars use
NAMES = st.one_of(
    st.sampled_from(["none", "end", "End", "Binary", "Maximize", "NAME", "RHS", "obj", "cap:0"]),
    st.text(alphabet="az09_:.+-<=>*\\", min_size=1, max_size=5),
)
# few values, so that coefficients repeat, and any finite float
VALUES = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.25, 3.75, -2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def ilp_models(draw):
    variables = tuple(draw(st.lists(NAMES, max_size=5, unique=True)))
    if variables:
        terms = st.lists(st.tuples(st.integers(0, len(variables) - 1), VALUES), max_size=4)
    else:
        terms = st.just([])
    row_names = draw(st.lists(NAMES.filter(lambda s: s != OBJ_ROW_NAME), max_size=4, unique=True))
    rows = [
        LinearRow(
            row_name,
            draw(terms),
            draw(st.sampled_from([SENSE_LE, SENSE_GE])),
            draw(st.one_of(st.just(-0.0), VALUES)),
        )
        for row_name in row_names
    ]
    return IlpModel(draw(st.one_of(st.just(""), NAMES)), variables, draw(terms), rows)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(model=ilp_models())
def test_hand_made_models_round_trip(model):
    assert_round_trips(model)
