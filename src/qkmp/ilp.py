"""Linearized integer program for the key distribution model.

The quadratic products x_ik*x_jk are replaced by binary variables y with the
usual three envelope rows (y <= x_ik, y <= x_jk, y >= x_ik + x_jk - 1), which
pin y to the product exactly at binary points. The builder performs no
presolve or reduction, so exported files can be audited row by row against
the mathematical model.

Every row and the objective keep their (position, coefficient) pairs in
stable position order, without zeros, so a model's range check reads only the
first and last position of each row. The public ``LinearRow`` constructor and
both readers normalize every row they make. ``build_ilp`` does so only for
its capacity and usage rows, which carry user weights and limits; its other
rows get the invariant from ``Graph``, which keeps its edges sorted with
i < j, and from ``KmpInstance``, which refuses q < 1.

Serialization targets two standard text formats: free-layout MPS and
CPLEX-style LP. The matching readers are only promised to round-trip files
produced by these writers.
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

    # The link, nbr and envelope rows are made without normalizing. They rely
    # on Graph's invariant (edges sorted int pairs with i < j), which puts
    # x_ik < x_jk < any z or y and gives each vertex ascending neighbor edges.
    rows: list[LinearRow] = []
    for i in range(n):
        rows.append(
            LinearRow(
                f"cap_{i}",
                tuple((i * K + k, inst.mem_per_key[k]) for k in range(K)),
                SENSE_LE,
                inst.capacity[i],
            )
        )
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
        rows.append(
            LinearRow(
                f"use_{k}",
                tuple((i * K + k, 1.0) for i in range(n)),
                SENSE_LE,
                float(inst.usage_limit[k]),
            )
        )

    objective = tuple((zbase + e, 1.0) for e in range(len(edges)))
    return IlpModel(
        name=f"kmp_n{n}_k{K}", variables=tuple(names), objective=objective, rows=rows
    )


# --- MPS ---

_SENSE_TO_MPS = {SENSE_LE: "L", SENSE_GE: "G"}
_MPS_TO_SENSE = {"L": SENSE_LE, "G": SENSE_GE}


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
    """Parse MPS text produced by write_mps back into an equal model."""
    name = ""
    section = ""
    objsense = "MIN"
    row_order: list[tuple[str, str]] = []  # (name, sense) excluding obj
    obj_seen = False
    objective: list[tuple[int, float]] = []
    # (column id, value) entries per row name; column ids are provisional,
    # in first-seen order, until BOUNDS gives each column its position
    row_coeffs: dict[str, list[tuple[int, float]]] = {OBJ_ROW_NAME: objective}
    col_id: dict[str, int] = {}
    value = _Table(float)  # each distinct value token parsed once
    rhs_map: dict[str, float] = {}
    binaries: list[str] = []

    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0][0] == "*":
            continue
        if raw[0] not in (" ", "\t"):
            section = tokens[0].upper()
            if section == "NAME":
                name = tokens[1] if len(tokens) > 1 else ""
            if section == "ENDATA":
                break
            if section == "OBJSENSE" and len(tokens) > 1:
                objsense = tokens[1].upper()
            continue
        if section == "COLUMNS":
            if "MARKER" in raw:
                continue
            if not len(tokens) % 2:
                raise IlpFormatError(f"odd COLUMNS entry: {raw!r}")
            cid = col_id.setdefault(tokens[0], len(col_id))
            for at in range(1, len(tokens), 2):
                entries = row_coeffs.get(tokens[at])
                if entries is None:
                    raise IlpFormatError(f"entry for undeclared row {tokens[at]!r}")
                entries.append((cid, value[tokens[at + 1]]))
        elif section == "ROWS":
            kind, row_name = tokens[0].upper(), tokens[1]
            if kind == "N":
                obj_seen = True
            elif kind in _MPS_TO_SENSE:
                row_order.append((row_name, _MPS_TO_SENSE[kind]))
                row_coeffs[row_name] = []
            else:
                raise IlpFormatError(f"unsupported row type {kind!r}")
        elif section == "RHS":
            if not len(tokens) % 2:
                raise IlpFormatError(f"odd RHS entry: {raw!r}")
            for at in range(1, len(tokens), 2):
                if tokens[at] not in row_coeffs:
                    raise IlpFormatError(f"RHS entry for undeclared row {tokens[at]!r}")
                rhs_map[tokens[at]] = value[tokens[at + 1]]
        elif section == "BOUNDS":
            if tokens[0].upper() != "BV":
                raise IlpFormatError(f"only BV bounds are supported: {raw!r}")
            binaries.append(tokens[2])
        elif section == "OBJSENSE":
            objsense = tokens[0].upper()
        else:
            raise IlpFormatError(f"data line outside a known section: {raw!r}")

    if not obj_seen:
        raise IlpFormatError("no objective row declared")
    if objsense != "MAX":
        raise IlpFormatError("only maximization models are supported")

    var_pos = {v: i for i, v in enumerate(binaries)}
    if len(var_pos) != len(binaries):
        raise IlpFormatError("duplicate variable in BOUNDS")
    for col in col_id:
        if col not in var_pos:
            raise IlpFormatError(f"column {col!r} has no BV bound")
    pos_of = [var_pos[col] for col in col_id]
    if pos_of != list(range(len(pos_of))):
        for entries in row_coeffs.values():
            entries[:] = [(pos_of[cid], v) for cid, v in entries]
    rows = tuple(
        LinearRow(rn, tuple(row_coeffs[rn]), sense, rhs_map.get(rn, 0.0))
        for rn, sense in row_order
    )
    return IlpModel(name=name, variables=tuple(binaries), objective=tuple(objective), rows=rows)


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


def _parse_lp_terms(tokens: list[str], var_pos: dict[str, int], where: str):
    coeffs: list[tuple[int, float]] = []
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        elif pending is None:
            try:
                pending = float(tok)
            except ValueError as exc:
                raise IlpFormatError(f"expected coefficient in {where}: {tok!r}") from exc
        else:
            if tok not in var_pos:
                raise IlpFormatError(f"unknown variable {tok!r} in {where}")
            coeffs.append((var_pos[tok], sign * pending))
            sign, pending = 1.0, None
    if pending is not None:
        raise IlpFormatError(f"dangling coefficient in {where}")
    return coeffs


def read_lp(text: str) -> IlpModel:
    """Parse LP text produced by write_lp back into an equal model."""
    name = ""
    lines = text.splitlines()
    # first pass: variable order from the Binary section
    binaries: list[str] = []
    section = ""
    seen_sections: set[str] = set()
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            comment = line[1:].strip()
            if comment.startswith("name="):
                name = comment[len("name="):]
            continue
        low = line.lower()
        if low in ("maximize", "minimize", "subject to", "binary", "binaries", "end"):
            section = low
            seen_sections.add(low)
            if low == "minimize":
                raise IlpFormatError("only maximization models are supported")
            continue
        if section in ("", "end"):
            raise IlpFormatError(f"data line outside a known section: {line!r}")
        if section in ("binary", "binaries"):
            binaries.extend(line.split())
    if "maximize" not in seen_sections:
        raise IlpFormatError("no Maximize section found")
    var_pos = {v: i for i, v in enumerate(binaries)}
    if len(var_pos) != len(binaries):
        raise IlpFormatError("duplicate variable in Binary section")

    # the empty-row placeholder "0.0 none" parses to a dropped position
    row_pos = {**var_pos, "none": -1}
    objective: list[tuple[int, float]] = []
    rows: list[LinearRow] = []
    section = ""
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "minimize", "subject to", "binary", "binaries", "end"):
            section = low
            continue
        if section == "maximize":
            if ":" not in line:
                raise IlpFormatError(f"objective line lacks a label: {line!r}")
            _, _, rest = line.partition(":")
            objective.extend(_parse_lp_terms(rest.split(), var_pos, "objective"))
        elif section == "subject to":
            label, colon, rest = line.partition(":")
            if not colon:
                raise IlpFormatError(f"constraint line lacks a label: {line!r}")
            tokens = rest.split()
            sense = None
            for s in (SENSE_LE, SENSE_GE):
                if s in tokens:
                    sense = s
                    break
            if sense is None:
                raise IlpFormatError(f"constraint without sense: {line!r}")
            at = tokens.index(sense)
            lhs, rhs_tokens = tokens[:at], tokens[at + 1 :]
            if len(rhs_tokens) != 1:
                raise IlpFormatError(f"malformed right-hand side: {line!r}")
            coeffs = _parse_lp_terms(lhs, row_pos, label.strip())
            coeffs = [(p, c) for p, c in coeffs if p != -1]
            rows.append(LinearRow(label.strip(), tuple(coeffs), sense, float(rhs_tokens[0])))
    return IlpModel(
        name=name, variables=tuple(binaries), objective=tuple(objective), rows=tuple(rows)
    )
