"""Linearized integer program for the key distribution model.

The quadratic products x_ik*x_jk are replaced by binary variables y with the
usual three envelope rows (y <= x_ik, y <= x_jk, y >= x_ik + x_jk - 1), which
pin y to the product exactly at binary points. The builder performs no
presolve or reduction, so exported files can be audited row by row against
the mathematical model.

Every row and the objective keep their (position, coefficient) pairs in
stable position order, without zeros, so a model's range check reads only the
first and last position of each row. The public ``LinearRow`` constructor and
both readers normalize every row they make; ``build_ilp`` makes its rows in
that form already (see there).

Serialization targets two standard text formats: free-layout MPS and
CPLEX-style LP. The matching readers accept the layout these writers produce,
for any whitespace-free names, and raise ``IlpFormatError`` on anything else:

- In both formats a section header is an unindented line that is exactly a
  section keyword: OBJSENSE, ROWS, COLUMNS, RHS, BOUNDS and ENDATA in MPS;
  Maximize, Subject To, Binary and End in LP. MPS also takes a ``NAME`` line,
  whose whole remainder after ``NAME `` is the model name. The text ends with
  the ENDATA or End header.
- An MPS data line is indented by one space and has a fixed number of
  fields: `` MAX``, `` L|G|N row``, one `` column row value`` per COLUMNS
  line, `` RHS row value`` and `` BV BND column``.
- LP takes one optional ``\\ name=...`` line before Maximize, one objective
  line ``obj: terms``, then one line ``row: terms sense rhs`` per constraint.
  The label ends at its first ``": "``. Terms are ``c x`` joined by `` + `` or
  `` - ``. A zero term is the filler that stands for an empty row and is
  dropped without looking up its variable. Binary entries are indented by one
  space, one per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .instance import KmpInstance

SENSE_LE = "<="
SENSE_GE = ">="

OBJ_ROW_NAME = "obj"


class IlpFormatError(ValueError):
    """Raised when a serialized model cannot be parsed back."""


def _fmt(v: float) -> str:
    # repr of a float is the shortest string that parses back to the same
    # double, which is what byte-stable round-trips need
    return repr(float(v))


class _Table(dict):
    """``fn`` of each distinct key, computed on first lookup, for one write or
    read. Keep zeros out of a float-keyed table of texts: -0.0 == 0.0, so
    both would get the text of whichever came first."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _normalized(coeffs: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    """int positions and float coefficients, zeros dropped, in stable position
    order. A tuple of (int, nonzero float) pairs already in that order is
    returned as it is, so rows may share their pair tuples."""
    if type(coeffs) is tuple:
        last = -1
        for pair in coeffs:
            if type(pair) is not tuple or len(pair) != 2:
                break
            pos, c = pair
            if type(pos) is not int or type(c) is not float or c == 0.0 or pos < last:
                break
            last = pos
        else:
            return coeffs
    out = tuple([(int(pos), float(c)) for pos, c in coeffs if float(c) != 0.0])
    for a, b in zip(out, out[1:]):
        if b[0] < a[0]:
            return tuple(sorted(out, key=itemgetter(0)))
    return out


@dataclass(frozen=True, slots=True, init=False)
class LinearRow:
    """One constraint: sparse lhs in position order, sense, rhs. Zero
    coefficients are dropped."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float

    def __init__(
        self, name: str, coeffs: Iterable[tuple[int, float]], sense: str, rhs: float
    ) -> None:
        if sense not in (SENSE_LE, SENSE_GE):
            raise ValueError(f"unsupported row sense {sense!r}")
        # frozen, so each field is set once, already normalized
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coeffs", _normalized(coeffs))
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "rhs", float(rhs))


_SET_ROW_FIELDS = tuple(LinearRow.__dict__[f].__set__ for f in ("name", "coeffs", "sense", "rhs"))


def _checked_row(name: str, coeffs: tuple, sense: str, rhs: float) -> LinearRow:
    """A LinearRow whose fields the caller has checked: coeffs normalized,
    sense valid, rhs a float."""
    row = object.__new__(LinearRow)
    set_name, set_coeffs, set_sense, set_rhs = _SET_ROW_FIELDS
    set_name(row, name)
    set_coeffs(row, coeffs)
    set_sense(row, sense)
    set_rhs(row, rhs)
    return row


@dataclass(frozen=True)
class IlpModel:
    """Pure-binary maximization model with named variables and rows."""

    name: str
    variables: tuple[str, ...]
    objective: tuple[tuple[int, float], ...]
    rows: tuple[LinearRow, ...]
    var_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        index = {name: pos for pos, name in enumerate(variables)}
        if len(index) != len(variables):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "var_index", index)
        obj = _normalized(self.objective)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", tuple(self.rows))
        names = {OBJ_ROW_NAME}
        for row in self.rows:
            if row.name in names:
                raise ValueError(f"duplicate row name {row.name!r}")
            names.add(row.name)
        # pairs are position-sorted, so the ends bound every position
        nvar = len(variables)
        if obj and not (obj[0][0] >= 0 and obj[-1][0] < nvar):
            raise ValueError("objective references unknown variable")
        for row in self.rows:
            coeffs = row.coeffs
            if coeffs and not (coeffs[0][0] >= 0 and coeffs[-1][0] < nvar):
                raise ValueError(f"row {row.name} references unknown variable")

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def objective_value(self, point: Sequence[int]) -> float:
        return sum(c * point[pos] for pos, c in self.objective)

    def satisfied(self, point: Sequence[int]) -> bool:
        """Exact feasibility of a 0/1 point; float rhs compared as-is."""
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        for row in self.rows:
            lhs = sum(c * point[pos] for pos, c in row.coeffs)
            if row.sense == SENSE_LE:
                if lhs > row.rhs:
                    return False
            else:
                if lhs < row.rhs:
                    return False
        return True


def x_name(i: int, k: int) -> str:
    return f"x_{i}_{k}"


def z_name(i: int, j: int) -> str:
    return f"z_{i}_{j}"


def y_name(i: int, j: int, k: int) -> str:
    return f"y_{i}_{j}_{k}"


def build_ilp(inst: KmpInstance) -> IlpModel:
    """Linear reformulation of the quadratic model for one instance.

    Variable order: all x_{i}_{k} (vertex-major), then z_{i}_{j} in edge
    order, then y_{i}_{j}_{k} (edge-major), so with E edges x_{i}_{k} sits at
    i*K + k, the z of edge e at n*K + e and its y for key k at
    n*K + E + e*K + k. Rows: capacity per vertex, link threshold per edge,
    neighborhood use per (vertex, key), three product envelope rows per
    (edge, key), then one usage row per key.
    """
    g = inst.graph
    n, K = g.n, inst.key_count
    edges = g.edges
    zbase = n * K
    ybase = zbase + len(edges)

    names = [x_name(i, k) for i in range(n) for k in range(K)]
    names += [z_name(i, j) for i, j in edges]
    # "i_j_k" per y, in y order; it names the y and its envelope rows
    tags = [f"{i}_{j}_{k}" for i, j in edges for k in range(K)]
    names += ["y_" + tag for tag in tags]

    # the pairs that recur across rows, built once and shared by them
    x_minus = [(x, -1.0) for x in range(zbase)]
    y_plus = [(y, 1.0) for y in range(ybase, ybase + len(edges) * K)]
    link_z = -float(inst.q)  # nonzero: KmpInstance refuses q < 1

    # Every row is made without normalizing. The rows rely on Graph's
    # invariant (edges sorted int pairs with i < j), which puts
    # x_ik < x_jk < any z or y and gives each vertex ascending neighbor edges,
    # and on KmpInstance refusing weights <= 0, so no coefficient is zero.
    mem = [float(m) for m in inst.mem_per_key]
    rows: list[LinearRow] = []
    for i in range(n):
        coeffs = tuple([(i * K + k, mem[k]) for k in range(K)])
        rows.append(_checked_row(f"cap_{i}", coeffs, SENSE_LE, float(inst.capacity[i])))
    for e, (i, j) in enumerate(edges):
        coeffs = ((zbase + e, link_z), *y_plus[e * K : e * K + K])
        rows.append(_checked_row(f"link_{i}_{j}", coeffs, SENSE_GE, 0.0))
    # the y block of each neighbor's edge, in ascending neighbor order
    edge_id = {edge: e for e, edge in enumerate(edges)}
    for i in range(n):
        rhs = float(inst.neighborhood_cap(i))
        blocks = [edge_id[(i, j) if i < j else (j, i)] * K for j in sorted(g.adjacency[i])]
        for k in range(K):
            coeffs = tuple([y_plus[b + k] for b in blocks])
            rows.append(_checked_row(f"nbr_{i}_{k}", coeffs, SENSE_LE, rhs))
    for e, (i, j) in enumerate(edges):
        for k in range(K):
            xi, xj, y = x_minus[i * K + k], x_minus[j * K + k], y_plus[e * K + k]
            tag = tags[e * K + k]
            rows.append(_checked_row("yu1_" + tag, (xi, y), SENSE_LE, 0.0))
            rows.append(_checked_row("yu2_" + tag, (xj, y), SENSE_LE, 0.0))
            rows.append(_checked_row("ylo_" + tag, (xi, xj, y), SENSE_GE, -1.0))
    for k in range(K):
        coeffs = tuple([(i * K + k, 1.0) for i in range(n)])
        rows.append(_checked_row(f"use_{k}", coeffs, SENSE_LE, float(inst.usage_limit[k])))

    objective = tuple((zbase + e, 1.0) for e in range(len(edges)))
    return IlpModel(
        name=f"kmp_n{n}_k{K}", variables=tuple(names), objective=objective, rows=rows
    )


# --- reading back ---


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise IlpFormatError(f"bad number {token!r}") from None


def _assemble(name: str, declared: list, columns: dict, objective: list, rows: list) -> IlpModel:
    """The model a reader parsed, checked the same way for both formats.

    ``declared`` lists the binary variables in file order, which is the
    model's variable order. ``columns`` gives each variable that the
    objective or a row uses a provisional id, in first-seen order. The
    objective and the entries of each (name, sense, rhs, entries) in ``rows``
    are (id, value) pairs.
    """
    position = {v: pos for pos, v in enumerate(declared)}
    if len(position) != len(declared):
        twice = next(v for pos, v in enumerate(declared) if position[v] != pos)
        raise IlpFormatError(f"duplicate variable {twice!r}")
    pos_of = []
    for col in columns:
        if col not in position:
            raise IlpFormatError(f"column {col!r} has no BV bound or Binary entry")
        pos_of.append(position[col])
    if pos_of != list(range(len(pos_of))):
        for entries in [objective] + [row[3] for row in rows]:
            entries[:] = [(pos_of[i], v) for i, v in entries]
    try:
        return IlpModel(
            name,
            tuple(declared),
            tuple(objective),
            tuple([LinearRow(n, tuple(e), sense, rhs) for n, sense, rhs, e in rows]),
        )
    except ValueError as exc:  # such as a duplicate row name
        raise IlpFormatError(str(exc)) from exc


# --- MPS ---

_SENSE_TO_MPS = {SENSE_LE: "L", SENSE_GE: "G"}
_MPS_TO_SENSE = {"L": SENSE_LE, "G": SENSE_GE}
# data fields per line in each section; ENDATA takes none
_MPS_FIELDS = {"OBJSENSE": 1, "ROWS": 2, "COLUMNS": 3, "RHS": 3, "BOUNDS": 3, "ENDATA": 0}


def write_mps(m: IlpModel) -> str:
    """Free-layout MPS text for the model; names are not length-limited."""
    coef = _Table(lambda c: " " + _fmt(c))  # rows and objective hold no zeros
    # per-variable "row coef" entries, objective entry first
    cols: list[list[str]] = [[] for _ in m.variables]
    for pos, c in m.objective:
        cols[pos].append(OBJ_ROW_NAME + coef[c])
    for row in m.rows:
        name = row.name
        for pos, c in row.coeffs:
            cols[pos].append(name + coef[c])
    lines = [f"NAME {m.name}".rstrip(), "OBJSENSE", " MAX", "ROWS", f" N {OBJ_ROW_NAME}"]
    lines += [f" {_SENSE_TO_MPS[row.sense]} {row.name}" for row in m.rows]
    lines.append("COLUMNS")
    # one join per column writes all of its lines
    lines += [
        f" {name} " + f"\n {name} ".join(entries)
        for name, entries in zip(m.variables, cols)
        if entries
    ]
    lines.append("RHS")
    rhs = _Table(_fmt)  # a zero rhs is a float already, so repr is _fmt
    lines += [f" RHS {row.name} {rhs[r] if (r := row.rhs) else repr(r)}" for row in m.rows]
    lines.append("BOUNDS")
    lines += [f" BV BND {name}" for name in m.variables]
    lines.append("ENDATA")
    lines.append("")
    return "\n".join(lines)


def read_mps(text: str) -> IlpModel:
    """Parse MPS text in the layout of write_mps back into an equal model."""
    name = section = ""
    fields = 0
    maximize = has_objective = False
    columns: dict[str, int] = {}
    objective: list[tuple[int, float]] = []
    rows: list[list] = []  # [name, sense, rhs, entries] per constraint
    row_of = {OBJ_ROW_NAME: [OBJ_ROW_NAME, None, 0.0, objective]}
    declared: list[str] = []
    value = _Table(_number)  # each distinct value token parsed once
    for raw in text.splitlines():
        if raw[:1] != " ":
            if raw in _MPS_FIELDS:
                section, fields = raw, _MPS_FIELDS[raw]
            elif raw[:5] in ("NAME", "NAME "):
                name = raw[5:]
            else:
                raise IlpFormatError(f"not a section header: {raw!r}")
            continue
        if not fields:
            raise IlpFormatError(f"data line outside a known section: {raw!r}")
        tokens = raw.split()
        if section == "BOUNDS" and tokens[:1] != ["BV"]:
            raise IlpFormatError(f"only BV bounds are supported: {raw!r}")
        if len(tokens) != fields:
            raise IlpFormatError(f"odd {section} entry: {raw!r}")
        if section == "COLUMNS" or section == "RHS":
            record = row_of.get(tokens[1])
            if record is None:
                raise IlpFormatError(f"{section} entry for undeclared row {tokens[1]!r}")
            if section == "COLUMNS":
                record[3].append((columns.setdefault(tokens[0], len(columns)), value[tokens[2]]))
            elif record[3] is objective:  # a model holds no objective constant
                raise IlpFormatError(f"RHS entry for the objective row: {raw!r}")
            else:
                record[2] = value[tokens[2]]
        elif section == "ROWS":
            kind, row = tokens
            if kind == "N":
                has_objective = True
            elif kind in _MPS_TO_SENSE:
                record = row_of[row] = [row, _MPS_TO_SENSE[kind], 0.0, []]
                rows.append(record)
            else:
                raise IlpFormatError(f"unsupported row type {kind!r}")
        elif section == "BOUNDS":
            declared.append(tokens[2])
        elif tokens == ["MAX"]:
            maximize = True
        else:
            raise IlpFormatError("only maximization models are supported")
    if section != "ENDATA":
        raise IlpFormatError("text does not end with ENDATA")
    if not has_objective:
        raise IlpFormatError("no objective row declared")
    if not maximize:
        raise IlpFormatError("only maximization models are supported")
    return _assemble(name, declared, columns, objective, rows)


# --- CPLEX-style LP ---


def _lp_spellings(c: float) -> tuple[str, str]:
    # a coefficient as LP writes it first ("2.0", "-0.5") and later (" + 2.0", " - 0.5")
    magnitude = _fmt(abs(c))
    return ("-" + magnitude, " - " + magnitude) if c < 0 else (magnitude, " + " + magnitude)


def _lp_terms(names: Sequence[str], coeffs: Iterable[tuple[int, float]], term: _Table) -> str:
    # names holds " name" per variable, so that each term is one concatenation
    text = ""
    for pos, c in coeffs:
        if text:
            text += term[c][1] + names[pos]
        else:
            text = term[c][0] + names[pos]
    return text


def write_lp(m: IlpModel) -> str:
    """CPLEX-LP text: Maximize / Subject To / Binary / End, deterministic."""
    term, rhs = _Table(_lp_spellings), _Table(_fmt)
    names = [" " + v for v in m.variables]
    lines: list[str] = []
    if m.name:
        lines.append(f"\\ name={m.name}")
    lines.append("Maximize")
    obj_terms = _lp_terms(names, m.objective, term)
    lines.append(f"{OBJ_ROW_NAME}:" + (f" {obj_terms}" if obj_terms else ""))
    lines.append("Subject To")
    for row in m.rows:
        terms = _lp_terms(names, row.coeffs, term)
        if not terms:
            # LP syntax has no empty sum; a zero times any variable stands in
            # for it and is dropped again on read
            terms = f"0.0 {m.variables[0]}" if m.variables else "0.0 none"
        lines.append(f"{row.name}: {terms} {row.sense} {rhs[r] if (r := row.rhs) else repr(r)}")
    if m.variables:
        lines.append("Binary")
        for v in m.variables:
            lines.append(f" {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_LP_SECTIONS = ("Maximize", "Subject To", "Binary", "End")


def read_lp(text: str) -> IlpModel:
    """Parse LP text in the layout of write_lp back into an equal model."""
    name = section = ""
    columns: dict[str, int] = {}
    objective: list[tuple[int, float]] | None = None
    rows: list[tuple] = []
    declared: list[str] = []
    value = _Table(_number)  # each distinct number token parsed once
    for raw in text.splitlines():
        if raw in _LP_SECTIONS:
            section = raw
        elif section == "Subject To" or section == "Maximize" and objective is None:
            # "label: c x + c x ... sense rhs", or "obj: c x + c x ..." alone
            tokens = raw.split()
            if not tokens or tokens[0][-1] != ":":
                raise IlpFormatError(f"line lacks a label: {raw!r}")
            end = len(tokens)
            if section == "Subject To":
                end -= 2
                if tokens[end] not in (SENSE_LE, SENSE_GE):
                    raise IlpFormatError(f"constraint without sense: {raw!r}")
            if end % 3 and end != 1:
                raise IlpFormatError(f"dangling coefficient in {raw!r}")
            entries = []
            for at in range(1, end, 3):
                c = value[tokens[at]]
                if at > 1 and tokens[at - 1] != "+":
                    if tokens[at - 1] != "-":
                        raise IlpFormatError(f"expected '+' or '-' in {raw!r}")
                    c = -c
                if c:  # rows hold no zeros, so a zero term is the empty-row filler
                    entries.append((columns.setdefault(tokens[at + 1], len(columns)), c))
            if section == "Maximize":
                objective = entries
            else:
                rows.append((tokens[0][:-1], tokens[end], value[tokens[-1]], entries))
        elif section == "Binary" and raw[:1] == " ":
            declared.append(raw[1:])
        elif not section and raw[:7] == "\\ name=":
            name = raw[7:]
        else:
            raise IlpFormatError(f"unexpected line in {section or 'no'} section: {raw!r}")
    if section != "End":
        raise IlpFormatError("text does not end with End")
    if objective is None:
        raise IlpFormatError("no objective line under Maximize")
    return _assemble(name, declared, columns, objective, rows)
