"""Linearized integer program for the key distribution model.

The quadratic products x_ik*x_jk are replaced by binary variables y with the
usual three envelope rows (y <= x_ik, y <= x_jk, y >= x_ik + x_jk - 1), which
pin y to the product exactly at binary points. The builder performs no
presolve or reduction, so exported files can be audited row by row against
the mathematical model.

``IlpModel`` stores its rows as four columns (names, coefficient tuples,
senses, rhs values). Every row and the objective keep their (position,
coefficient) pairs in stable position order, without zeros, so a model's
range check reads only the first and last position of each row. The public
``LinearRow`` constructor and both readers normalize every row they make;
``build_ilp`` makes its rows in that form already (see there). Variable and
row names must be non-empty strings without whitespace, and a model name a
string that neither spans lines nor ends in whitespace, so that both formats
read every name back.

Serialization targets two standard text formats: free-layout MPS and
CPLEX-style LP. The matching readers accept the layout these writers produce
and raise ``IlpFormatError`` on anything else:

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


def _transposed(records: list) -> tuple:
    # four-field records as four column tuples
    return tuple(zip(*records)) or ((), (), (), ())


def _check_names(names: tuple[str, ...], what: str) -> None:
    # str.split drops exactly the whitespace, so it drops nothing from the
    # joined names when they are whitespace-free; only a refusal looks further
    try:
        joined = "".join(names)
    except TypeError:  # a name that is not a string, refused below
        joined = " "
    if not all(names) or sum(map(len, joined.split())) != len(joined):
        bad = next(s for s in names if not isinstance(s, str) or s.split() != [s])
        raise ValueError(f"{what} name {bad!r} is not text, is empty or contains whitespace")


@dataclass(frozen=True, init=False)
class IlpModel:
    """Pure-binary maximization model with named variables and rows, kept as
    the columns ``row_*``."""

    name: str
    variables: tuple[str, ...]
    objective: tuple[tuple[int, float], ...]
    row_names: tuple[str, ...]
    row_coeffs: tuple[tuple[tuple[int, float], ...], ...]
    row_senses: tuple[str, ...]
    row_rhs: tuple[float, ...]
    var_index: dict = field(repr=False, compare=False)

    def __init__(
        self, name: str, variables: Iterable[str], objective: Iterable, rows: Iterable[LinearRow]
    ) -> None:
        rows = [(row.name, row.coeffs, row.sense, row.rhs) for row in rows]
        self._fill(name, variables, objective, *_transposed(rows))

    @classmethod
    def _of_columns(cls, *columns) -> IlpModel:
        """``__init__`` for row columns of normalized coefficients, senses and float rhs."""
        model = object.__new__(cls)
        model._fill(*columns)
        return model

    def _fill(self, name, variables, objective, names, coeffs, senses, rhs) -> None:
        variables, names, coeffs, senses, rhs = map(tuple, (variables, names, coeffs, senses, rhs))
        index = {v: pos for pos, v in enumerate(variables)}
        if len(index) != len(variables):
            raise ValueError("variable names must be unique")
        if not isinstance(name, str) or name.rstrip() != name or len(name.splitlines()) > 1:
            raise ValueError(f"model name {name!r} is not text, spans lines or ends in whitespace")
        _check_names(variables, "variable")
        _check_names(names, "row")
        unique = set(names)
        if len(unique) != len(names) or OBJ_ROW_NAME in unique:
            seen: set[str] = set()
            twice = next(n for n in (OBJ_ROW_NAME, *names) if n in seen or seen.add(n))
            raise ValueError(f"duplicate row name {twice!r}")
        # pairs are position-sorted, so the ends bound every position
        obj = _normalized(objective)
        nvar = len(variables)
        if obj and not (obj[0][0] >= 0 and obj[-1][0] < nvar):
            raise ValueError("objective references unknown variable")
        for row_name, c in zip(names, coeffs):
            if c and not (c[0][0] >= 0 and c[-1][0] < nvar):
                raise ValueError(f"row {row_name} references unknown variable")
        values = (name, variables, obj, names, coeffs, senses, rhs, index)
        for f, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, f, value)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    def objective_value(self, point: Sequence[int]) -> float:
        return sum(c * point[pos] for pos, c in self.objective)

    def satisfied(self, point: Sequence[int]) -> bool:
        """Exact feasibility of a 0/1 point; float rhs compared as-is."""
        if len(point) != len(self.variables):
            raise ValueError("point length does not match variable count")
        for coeffs, sense, rhs in zip(self.row_coeffs, self.row_senses, self.row_rhs):
            lhs = sum(c * point[pos] for pos, c in coeffs)
            if lhs > rhs if sense == SENSE_LE else lhs < rhs:
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
    row_names = [f"cap_{i}" for i in range(n)]
    coeffs = [tuple([(i * K + k, mem[k]) for k in range(K)]) for i in range(n)]
    row_names += [f"link_{i}_{j}" for i, j in edges]
    coeffs += [((zbase + e, link_z), *y_plus[e * K : e * K + K]) for e in range(len(edges))]
    # the y block of each neighbor's edge, in ascending neighbor order
    edge_id = {edge: e for e, edge in enumerate(edges)}
    for i in range(n):
        blocks = [edge_id[(i, j) if i < j else (j, i)] * K for j in sorted(g.adjacency[i])]
        row_names += [f"nbr_{i}_{k}" for k in range(K)]
        coeffs += [tuple([y_plus[b + k] for b in blocks]) for k in range(K)]
    for e, (i, j) in enumerate(edges):
        for k in range(K):
            xi, xj, y = x_minus[i * K + k], x_minus[j * K + k], y_plus[e * K + k]
            tag = tags[e * K + k]
            row_names += ("yu1_" + tag, "yu2_" + tag, "ylo_" + tag)
            coeffs += ((xi, y), (xj, y), (xi, xj, y))
    row_names += [f"use_{k}" for k in range(K)]
    coeffs += [tuple([(i * K + k, 1.0) for i in range(n)]) for k in range(K)]
    # the sense and rhs of each row, family by family in the same order
    senses = [SENSE_LE] * n + [SENSE_GE] * len(edges) + [SENSE_LE] * (n * K)
    senses += [SENSE_LE, SENSE_LE, SENSE_GE] * len(tags) + [SENSE_LE] * K
    rhs = [float(c) for c in inst.capacity] + [0.0] * len(edges)
    rhs += [r for i in range(n) for r in [float(inst.neighborhood_cap(i))] * K]
    rhs += [0.0, 0.0, -1.0] * len(tags) + [float(u) for u in inst.usage_limit]

    objective = tuple([(zbase + e, 1.0) for e in range(len(edges))])
    name = f"kmp_n{n}_k{K}"
    return IlpModel._of_columns(name, names, objective, row_names, coeffs, senses, rhs)


# --- reading back ---


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise IlpFormatError(f"bad number {token!r}") from None


def _assemble(
    name, declared, position, columns, objective, names, senses, rhs, entries
) -> IlpModel:
    """The model a reader parsed, checked the same way for both formats.

    ``declared`` lists the binary variables in file order, which is the
    model's variable order, and ``position`` maps each of them to its place
    there. The objective and each row's entries are lists of (id, value)
    pairs. An id is a position in ``declared``, except for the variables in
    ``columns``, which maps them to their ids: MPS gives every variable that
    the objective or a row uses a provisional id in first-seen order, while
    LP looks its names up in ``position`` and lists only those it missed.
    The rows come as the columns ``names``, ``senses``, ``rhs`` and
    ``entries``.
    """
    if len(position) != len(declared):
        twice = next(v for pos, v in enumerate(declared) if position[v] != pos)
        raise IlpFormatError(f"duplicate variable {twice!r}")
    pos_of = []
    for col in columns:
        if col not in position:
            raise IlpFormatError(f"column {col!r} has no BV bound or Binary entry")
        pos_of.append(position[col])
    if pos_of != list(range(len(pos_of))):
        objective = [(pos_of[i], v) for i, v in objective]
        entries = [[(pos_of[i], v) for i, v in pairs] for pairs in entries]
    coeffs = [_normalized(tuple(pairs)) for pairs in entries]
    try:
        return IlpModel._of_columns(name, declared, tuple(objective), names, coeffs, senses, rhs)
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
    for name, coeffs in zip(m.row_names, m.row_coeffs):
        for pos, c in coeffs:
            cols[pos].append(name + coef[c])
    lines = [f"NAME {m.name}".rstrip(), "OBJSENSE", " MAX", "ROWS", f" N {OBJ_ROW_NAME}"]
    lines += [f" {_SENSE_TO_MPS[sense]} {name}" for name, sense in zip(m.row_names, m.row_senses)]
    lines.append("COLUMNS")
    # one join per column writes all of its lines
    lines += [
        f" {name} " + f"\n {name} ".join(entries)
        for name, entries in zip(m.variables, cols)
        if entries
    ]
    lines.append("RHS")
    rhs = _Table(_fmt)  # a zero rhs is a float already, so repr is _fmt
    lines += [f" RHS {name} {rhs[r] if r else repr(r)}" for name, r in zip(m.row_names, m.row_rhs)]
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
    # name, sense, rhs and entries of each row, the objective's at index 0
    names, senses, rhs, entries = [OBJ_ROW_NAME], [None], [0.0], [objective]
    row_of = {OBJ_ROW_NAME: 0}  # row name -> index into those four lists
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
            at = row_of.get(tokens[1])
            if at is None:
                raise IlpFormatError(f"{section} entry for undeclared row {tokens[1]!r}")
            if section == "COLUMNS":
                entries[at].append((columns.setdefault(tokens[0], len(columns)), value[tokens[2]]))
            elif not at:  # a model holds no objective constant
                raise IlpFormatError(f"RHS entry for the objective row: {raw!r}")
            else:
                rhs[at] = value[tokens[2]]
        elif section == "ROWS":
            kind, row = tokens
            if kind == "N":
                has_objective = True
            elif kind in _MPS_TO_SENSE:
                row_of[row] = len(names)
                names.append(row)
                senses.append(_MPS_TO_SENSE[kind])
                rhs.append(0.0)
                entries.append([])
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
    rows = names[1:], senses[1:], rhs[1:], entries[1:]
    position = {v: pos for pos, v in enumerate(declared)}
    return _assemble(name, declared, position, columns, objective, *rows)


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
    for row_name, coeffs, sense, r in zip(m.row_names, m.row_coeffs, m.row_senses, m.row_rhs):
        terms = _lp_terms(names, coeffs, term)
        if not terms:
            # LP syntax has no empty sum; a zero times any variable stands in
            # for it and is dropped again on read
            terms = f"0.0 {m.variables[0]}" if m.variables else "0.0 none"
        lines.append(f"{row_name}: {terms} {sense} {rhs[r] if r else repr(r)}")
    if m.variables:
        lines.append("Binary")
        for v in m.variables:
            lines.append(f" {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_LP_SECTIONS = ("Maximize", "Subject To", "Binary", "End")


def _index(lines: list[str], line: str, start: int) -> int:
    # where line first occurs in lines from start on, or len(lines)
    try:
        return lines.index(line, start)
    except ValueError:
        return len(lines)


def _lp_binaries(lines: list[str]) -> list[str]:
    """The names that the Binary sections of LP lines declare, in order.

    A section runs from its header line to the next header line. Lines
    there that do not start with a space declare nothing; read_lp refuses
    them in line order.
    """
    declared: list[str] = []
    at = _index(lines, "Binary", 0)
    while at < len(lines):
        end = min(_index(lines, header, at + 1) for header in _LP_SECTIONS)
        declared += [raw[1:] for raw in lines[at + 1 : end] if raw[:1] == " "]
        at = _index(lines, "Binary", end)
    return declared


def read_lp(text: str) -> IlpModel:
    """Parse LP text in the layout of write_lp back into an equal model.

    The Binary names are read ahead of the rows, although they come last, so
    that every entry gets its variable position in one lookup.
    """
    name = section = ""
    lines = text.splitlines()
    declared = _lp_binaries(lines)
    position = {v: pos for pos, v in enumerate(declared)}
    missed: dict[str, int] = {}  # names used but not declared, in first-seen order
    objective: list[tuple[int, float]] | None = None
    rows: list[tuple] = []
    value = _Table(_number)  # each distinct number token parsed once
    for raw in lines:
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
                    pos = position.get(tokens[at + 1])
                    if pos is None:
                        pos = missed.setdefault(tokens[at + 1], -1)
                    entries.append((pos, c))
            if section == "Maximize":
                objective = entries
            else:
                rows.append((tokens[0][:-1], tokens[end], value[tokens[-1]], entries))
        elif section == "Binary" and raw[:1] == " ":
            pass  # read ahead by _lp_binaries
        elif not section and raw[:7] == "\\ name=":
            name = raw[7:]
        else:
            raise IlpFormatError(f"unexpected line in {section or 'no'} section: {raw!r}")
    if section != "End":
        raise IlpFormatError("text does not end with End")
    if objective is None:
        raise IlpFormatError("no objective line under Maximize")
    return _assemble(name, declared, position, missed, objective, *_transposed(rows))
