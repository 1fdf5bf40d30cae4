"""Linearized integer program for the key distribution model.

The quadratic products x_ik*x_jk are replaced by binary variables y with the
usual three envelope rows (y <= x_ik, y <= x_jk, y >= x_ik + x_jk - 1), which
pin y to the product exactly at binary points. The builder performs no
presolve or reduction, so exported files can be audited row by row against
the mathematical model.

Serialization targets two standard text formats: free-layout MPS and
CPLEX-style LP. The matching readers are only promised to round-trip files
produced by these writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class LinearRow:
    """One constraint: sparse lhs, sense, rhs. Zero coefficients are dropped."""

    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in (SENSE_LE, SENSE_GE):
            raise ValueError(f"unsupported row sense {self.sense!r}")
        cleaned = tuple(
            sorted(
                ((int(pos), float(c)) for pos, c in self.coeffs if float(c) != 0.0),
                key=lambda t: t[0],
            )
        )
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "rhs", float(self.rhs))


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
        obj = tuple(
            sorted(
                ((int(pos), float(c)) for pos, c in self.objective if float(c) != 0.0),
                key=lambda t: t[0],
            )
        )
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", tuple(self.rows))
        names = {OBJ_ROW_NAME}
        for row in self.rows:
            if row.name in names:
                raise ValueError(f"duplicate row name {row.name!r}")
            names.add(row.name)
        nvar = len(variables)
        for pos, _ in obj:
            if not 0 <= pos < nvar:
                raise ValueError("objective references unknown variable")
        for row in self.rows:
            for pos, _ in row.coeffs:
                if not 0 <= pos < nvar:
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
    order, then y_{i}_{j}_{k} (edge-major). Rows: capacity per vertex, link
    threshold per edge, neighborhood use per (vertex, key), three product
    envelope rows per (edge, key), then one usage row per key.
    """
    g = inst.graph
    n, K = g.n, inst.key_count
    edges = g.edges

    names: list[str] = []
    xpos: dict[tuple[int, int], int] = {}
    for i in range(n):
        for k in range(K):
            xpos[(i, k)] = len(names)
            names.append(x_name(i, k))
    zpos: dict[tuple[int, int], int] = {}
    for i, j in edges:
        zpos[(i, j)] = len(names)
        names.append(z_name(i, j))
    ypos: dict[tuple[int, int, int], int] = {}
    for i, j in edges:
        for k in range(K):
            ypos[(i, j, k)] = len(names)
            names.append(y_name(i, j, k))

    rows: list[LinearRow] = []
    for i in range(n):
        rows.append(
            LinearRow(
                name=f"cap_{i}",
                coeffs=tuple((xpos[(i, k)], inst.mem_per_key[k]) for k in range(K)),
                sense=SENSE_LE,
                rhs=inst.capacity[i],
            )
        )
    for i, j in edges:
        coeffs = [(ypos[(i, j, k)], 1.0) for k in range(K)]
        coeffs.append((zpos[(i, j)], -float(inst.q)))
        rows.append(
            LinearRow(name=f"link_{i}_{j}", coeffs=tuple(coeffs), sense=SENSE_GE, rhs=0.0)
        )
    for i in range(n):
        rhs = inst.neighborhood_cap(i)
        for k in range(K):
            coeffs = tuple(
                (ypos[(min(i, j), max(i, j), k)], 1.0) for j in sorted(g.adjacency[i])
            )
            rows.append(LinearRow(name=f"nbr_{i}_{k}", coeffs=coeffs, sense=SENSE_LE, rhs=rhs))
    for i, j in edges:
        for k in range(K):
            y = ypos[(i, j, k)]
            xi, xj = xpos[(i, k)], xpos[(j, k)]
            rows.append(
                LinearRow(f"yu1_{i}_{j}_{k}", ((y, 1.0), (xi, -1.0)), SENSE_LE, 0.0)
            )
            rows.append(
                LinearRow(f"yu2_{i}_{j}_{k}", ((y, 1.0), (xj, -1.0)), SENSE_LE, 0.0)
            )
            rows.append(
                LinearRow(
                    f"ylo_{i}_{j}_{k}", ((y, 1.0), (xi, -1.0), (xj, -1.0)), SENSE_GE, -1.0
                )
            )
    for k in range(K):
        rows.append(
            LinearRow(
                name=f"use_{k}",
                coeffs=tuple((xpos[(i, k)], 1.0) for i in range(n)),
                sense=SENSE_LE,
                rhs=float(inst.usage_limit[k]),
            )
        )

    objective = tuple((zpos[e], 1.0) for e in edges)
    return IlpModel(
        name=f"kmp_n{n}_k{K}", variables=tuple(names), objective=objective, rows=rows
    )


# --- MPS ---

_SENSE_TO_MPS = {SENSE_LE: "L", SENSE_GE: "G"}
_MPS_TO_SENSE = {"L": SENSE_LE, "G": SENSE_GE}


def _column_entries(m: IlpModel) -> list[list[tuple[str, float]]]:
    # per-variable (row-name, coef) lists, objective entry first
    cols: list[list[tuple[str, float]]] = [[] for _ in m.variables]
    for pos, c in m.objective:
        cols[pos].append((OBJ_ROW_NAME, c))
    for row in m.rows:
        for pos, c in row.coeffs:
            cols[pos].append((row.name, c))
    return cols


def write_mps(m: IlpModel) -> str:
    """Free-layout MPS text for the model; names are not length-limited."""
    lines: list[str] = []
    lines.append(f"NAME {m.name}".rstrip())
    lines.append("OBJSENSE")
    lines.append(" MAX")
    lines.append("ROWS")
    lines.append(f" N {OBJ_ROW_NAME}")
    for row in m.rows:
        lines.append(f" {_SENSE_TO_MPS[row.sense]} {row.name}")
    lines.append("COLUMNS")
    for name, entries in zip(m.variables, _column_entries(m)):
        for row_name, coef in entries:
            lines.append(f" {name} {row_name} {_fmt(coef)}")
    lines.append("RHS")
    for row in m.rows:
        lines.append(f" RHS {row.name} {_fmt(row.rhs)}")
    lines.append("BOUNDS")
    for name in m.variables:
        lines.append(f" BV BND {name}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def read_mps(text: str) -> IlpModel:
    """Parse MPS text produced by write_mps back into an equal model."""
    name = ""
    section = ""
    objsense = "MIN"
    row_order: list[tuple[str, str]] = []  # (name, sense) excluding obj
    obj_seen = False
    col_entries: dict[str, list[tuple[str, float]]] = {}
    rhs_map: dict[str, float] = {}
    binaries: list[str] = []

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if raw[0] not in (" ", "\t"):
            parts = raw.split()
            section = parts[0].upper()
            if section == "NAME":
                name = parts[1] if len(parts) > 1 else ""
            if section == "ENDATA":
                break
            if section == "OBJSENSE" and len(parts) > 1:
                objsense = parts[1].upper()
            continue
        tokens = raw.split()
        if section == "OBJSENSE":
            objsense = tokens[0].upper()
        elif section == "ROWS":
            kind, row_name = tokens[0].upper(), tokens[1]
            if kind == "N":
                obj_seen = True
            elif kind in _MPS_TO_SENSE:
                row_order.append((row_name, _MPS_TO_SENSE[kind]))
            else:
                raise IlpFormatError(f"unsupported row type {kind!r}")
        elif section == "COLUMNS":
            if "MARKER" in raw:
                continue
            col = tokens[0]
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise IlpFormatError(f"odd COLUMNS entry: {raw!r}")
            for rn, val in zip(pairs[::2], pairs[1::2]):
                col_entries.setdefault(col, []).append((rn, float(val)))
        elif section == "RHS":
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise IlpFormatError(f"odd RHS entry: {raw!r}")
            for rn, val in zip(pairs[::2], pairs[1::2]):
                rhs_map[rn] = float(val)
        elif section == "BOUNDS":
            if tokens[0].upper() != "BV":
                raise IlpFormatError(f"only BV bounds are supported: {raw!r}")
            binaries.append(tokens[2])
        else:
            raise IlpFormatError(f"data line outside a known section: {raw!r}")

    if not obj_seen:
        raise IlpFormatError("no objective row declared")
    if objsense != "MAX":
        raise IlpFormatError("only maximization models are supported")

    var_pos = {v: i for i, v in enumerate(binaries)}
    if len(var_pos) != len(binaries):
        raise IlpFormatError("duplicate variable in BOUNDS")
    row_coeffs: dict[str, list[tuple[int, float]]] = {rn: [] for rn, _ in row_order}
    objective: list[tuple[int, float]] = []
    for col, entries in col_entries.items():
        if col not in var_pos:
            raise IlpFormatError(f"column {col!r} has no BV bound")
        for rn, val in entries:
            if rn == OBJ_ROW_NAME:
                objective.append((var_pos[col], val))
            elif rn in row_coeffs:
                row_coeffs[rn].append((var_pos[col], val))
            else:
                raise IlpFormatError(f"entry for undeclared row {rn!r}")
    rows = tuple(
        LinearRow(rn, tuple(row_coeffs[rn]), sense, rhs_map.get(rn, 0.0))
        for rn, sense in row_order
    )
    return IlpModel(name=name, variables=tuple(binaries), objective=tuple(objective), rows=rows)


# --- CPLEX-style LP ---


def _lp_terms(m: IlpModel, coeffs: Iterable[tuple[int, float]]) -> str:
    parts: list[str] = []
    for pos, c in coeffs:
        if not parts:
            lead = "-" if c < 0 else ""
            parts.append(f"{lead}{_fmt(abs(c))} {m.variables[pos]}")
        else:
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {_fmt(abs(c))} {m.variables[pos]}")
    return " ".join(parts)


def write_lp(m: IlpModel) -> str:
    """CPLEX-LP text: Maximize / Subject To / Binary / End, deterministic."""
    lines: list[str] = []
    if m.name:
        lines.append(f"\\ name={m.name}")
    lines.append("Maximize")
    obj_terms = _lp_terms(m, m.objective)
    lines.append(f"{OBJ_ROW_NAME}:" + (f" {obj_terms}" if obj_terms else ""))
    lines.append("Subject To")
    for row in m.rows:
        terms = _lp_terms(m, row.coeffs)
        if not terms:
            # LP syntax has no empty sum; a zero times any variable stands in
            # for it and is dropped again on read
            terms = f"0.0 {m.variables[0]}" if m.variables else "0.0 none"
        lines.append(f"{row.name}: {terms} {row.sense} {_fmt(row.rhs)}")
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
            coeffs = _parse_lp_terms(lhs, {**var_pos, "none": -1}, label.strip())
            coeffs = [(p, c) for p, c in coeffs if p != -1]
            rows.append(LinearRow(label.strip(), tuple(coeffs), sense, float(rhs_tokens[0])))
    return IlpModel(
        name=name, variables=tuple(binaries), objective=tuple(objective), rows=tuple(rows)
    )
