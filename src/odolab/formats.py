"""Plain-text formats for lattices, chains, cocycles, descriptors, cones.

Grammar, one value per file (blank lines and '#' comments ignored):

  lattice     [1/s;] d; r11 r12 ...; r21 ...   rows of the basis matrix
  chain       dim=2 provider=diagpow primes=3,2 exps=j,j
              dim=2 provider=explicit          (lattice literals, one per line)
              dim=2 provider=derived cocycle=<path> [checked=3]
                                               (stage i: the stabilizer at depth J+i-1)
  cocycle     chain=<path> J=1 d2=2
              gen 1:
              rep (0,0) -> (1,0)
              ...
  descriptor  dim=2 shear=1,0,-1/2,1 supports=3|2
  cone        cone=quadrant dim=2 [strict=0,1]
              cone=sector u=1,0 v=0,1 [include=both|u|v|none]
              cone=facets dim=2 normals=0,1,>=;1,0,>

Parse errors carry line and column.  parse(emit(x)) reproduces x for every
emittable value.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from .classify import SupergroupDescriptor
from .lattice import IntegerLattice, RationalLattice
from .odometer import DiagonalPowerProvider, ExplicitProvider, OdometerChain
from .speedup import Cone, PiecewiseCocycle, SpeedupError, derived_odometer, validate


class SpecSyntaxError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            yield i, stripped


def _keyvals(line: str, lineno: int) -> dict[str, tuple[str, int]]:
    """Header tokens as key -> (value text, column of the value); a key
    given twice is refused at its second occurrence."""
    out = {}
    for m in re.finditer(r"(\S+?)=(\S+)", line):
        if m.group(1) in out:
            raise SpecSyntaxError(lineno, m.start(1) + 1, f"repeated key {m.group(1)}=")
        out[m.group(1)] = (m.group(2), m.start(2) + 1)
    if not out:
        raise SpecSyntaxError(lineno, 1, "expected key=value tokens")
    return out


def _header(text: str, kind: str):
    """The content lines of a spec, and its first line's number and header
    tokens; a text of blank and comment lines is an empty spec."""
    lines = list(_content_lines(text))
    if not lines:
        raise SpecSyntaxError(1, 1, f"empty {kind} spec")
    lineno, header = lines[0]
    return lines, lineno, _keyvals(header, lineno)


def _field(kv, key: str, lineno: int, parse=str, default=...):
    """Header value of `key` converted by `parse` (required unless a default
    is given); a missing or malformed value raises a positioned SpecSyntaxError."""
    if key not in kv:
        if default is ...:
            raise SpecSyntaxError(lineno, 1, f"missing {key}=")
        return default
    text, column = kv[key]
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise SpecSyntaxError(lineno, column, f"bad value {text!r} for {key}=") from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


# ---------------------------------------------------------------- lattices

def parse_lattice(text: str):
    """Integer or rational lattice from a literal; returns the typed value."""
    lines = list(_content_lines(text))
    body = " ".join(s for _, s in lines)
    if not body:
        raise SpecSyntaxError(1, 1, "empty lattice literal")
    # every ';'-separated part, with the offset in `body` where its text starts
    parts, offset = [], 0
    for piece in body.split(";"):
        parts.append((piece.strip(), offset + len(piece) - len(piece.lstrip())))
        offset += len(piece) + 1
    line_starts = list(accumulate((len(s) + 1 for _, s in lines), initial=0))
    den = 1
    if re.fullmatch(r"1/\d+", parts[0][0]):
        den = int(parts[0][0][2:])
        parts = parts[1:]
    try:
        dim = int(parts[0][0])
    except (ValueError, IndexError):
        raise SpecSyntaxError(1, 1, "lattice literal must start with its dimension")
    rows = []
    for chunk, start in parts[1:]:
        if not chunk:
            continue
        try:
            rows.append([int(tok) for tok in chunk.split()])
        except ValueError:
            i = bisect_right(line_starts, start) - 1
            raise SpecSyntaxError(lines[i][0], start - line_starts[i] + 1, f"bad integer row {chunk!r}") from None
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise SpecSyntaxError(1, 1, f"expected a {dim}x{dim} matrix")
    if den == 1:
        return IntegerLattice.from_rows(rows)
    return RationalLattice.from_scaled_rows(den, rows)


def emit_lattice(lat) -> str:
    if isinstance(lat, RationalLattice):
        prefix = f"1/{lat.den}; " if lat.den != 1 else ""
        rows = lat.num.rows
        return prefix + f"{lat.dim}; " + "; ".join(" ".join(str(e) for e in r) for r in rows)
    return f"{lat.dim}; " + "; ".join(" ".join(str(e) for e in r) for r in lat.rows)


# ---------------------------------------------------------------- chains

_EXP_RE = re.compile(r"^(\d*)j$|^(\d+)$")


def _parse_exponent(token: str, lineno: int, column: int) -> int:
    m = _EXP_RE.match(token)
    if not m:
        raise SpecSyntaxError(lineno, column, f"bad exponent rule {token!r} (use j, 2j, ...)")
    if m.group(2) is not None:
        if int(m.group(2)) != 0:
            raise SpecSyntaxError(lineno, column, "constant exponents other than 0 are not a rule")
        return 0
    return int(m.group(1)) if m.group(1) else 1


def parse_chain(text: str, base_dir: Path | None = None) -> OdometerChain:
    lines, lineno, kv = _header(text, "chain")
    provider = _field(kv, "provider", lineno)
    dim = _field(kv, "dim", lineno, int, None)
    if provider == "diagpow":
        primes = _field(kv, "primes", lineno, _ints)
        if min(primes) < 1:  # base 1 is allowed: the chain is not free, as `freeness_evidence` says
            raise SpecSyntaxError(lineno, kv["primes"][1], f"diagpow bases must be at least 1, got {min(primes)}")
        rules, column = kv.get("exps", ("j", 1))
        exps = [_parse_exponent(e, lineno, column) for e in rules.split(",")]
        if len(exps) == 1:
            exps = exps * len(primes)
        if len(exps) != len(primes):
            raise SpecSyntaxError(lineno, column, f"exps needs 1 or {len(primes)} rules, got {len(exps)}")
        if dim is not None and dim != len(primes):
            raise SpecSyntaxError(lineno, kv["dim"][1], "dim does not match the prime list")
        return OdometerChain.diagonal_power(primes, exps)
    if provider == "explicit":
        lattices = []
        for ln, chunk in lines[1:]:
            try:
                lat = parse_lattice(chunk)
            except SpecSyntaxError as err:  # positioned in the one-line literal
                raise SpecSyntaxError(ln, err.column, err.message) from None
            if isinstance(lat, RationalLattice):
                raise SpecSyntaxError(ln, 1, "chain stages must be integer lattices")
            lattices.append(lat)
        if not lattices:
            raise SpecSyntaxError(lineno, 1, "explicit chains need at least one stage")
        if dim is not None and dim != lattices[0].dim:
            raise SpecSyntaxError(lineno, kv["dim"][1], "dim does not match the stage matrices")
        return OdometerChain.explicit(lattices)
    if provider == "derived":
        path = _field(kv, "cocycle", lineno, Path)
        checked = _field(kv, "checked", lineno, int, 3)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        cocycle = load_cocycle(path)
        if dim is not None and dim != cocycle.d2:
            raise SpecSyntaxError(lineno, kv["dim"][1], f"dim does not match the cocycle's rank {cocycle.d2}")
        return derived_odometer(cocycle, checked_depth=checked)
    raise SpecSyntaxError(lineno, kv["provider"][1], f"unknown provider {provider!r}")


def emit_chain(chain: OdometerChain) -> str:
    prov = chain.provider
    if isinstance(prov, DiagonalPowerProvider):
        primes = ",".join(str(b) for b in prov.bases)
        exps = ",".join(("j" if a == 1 else ("0" if a == 0 else f"{a}j")) for a in prov.coeffs)
        return f"dim={chain.dim} provider=diagpow primes={primes} exps={exps}"
    if isinstance(prov, ExplicitProvider):
        head = f"dim={chain.dim} provider=explicit"
        return "\n".join([head] + [emit_lattice(lat) for lat in prov.lattices])
    raise ValueError("only rule-backed and explicit chains have a standalone file form")


def load_chain(path) -> OdometerChain:
    path = Path(path)
    return parse_chain(path.read_text(), base_dir=path.parent)


# ---------------------------------------------------------------- cocycles

_REP_RE = re.compile(r"^rep\s*\(([^)]*)\)\s*->\s*\(([^)]*)\)$")


def parse_cocycle(text: str, base_dir: Path | None = None, chain: OdometerChain | None = None) -> PiecewiseCocycle:
    lines, lineno, kv = _header(text, "cocycle")
    depth = _field(kv, "J", lineno, int, 1)
    d2 = _field(kv, "d2", lineno, int)
    for key, value in (("J", depth), ("d2", d2)):
        if value < 1:  # stages are numbered from 1, and a cocycle has at least one generator table
            raise SpecSyntaxError(lineno, kv[key][1], f"{key} must be at least 1, got {value}")
    if chain is None:
        path = _field(kv, "chain", lineno, Path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        chain = load_chain(path)
    space = chain.kr_partition(depth)
    tables: list[dict] = []
    heads: list[int] = []  # the line of each table's `gen i:`
    current: dict | None = None
    for ln, line in lines[1:]:
        m = re.match(r"^gen\s+(\d+)\s*:$", line.strip())
        if m:
            if int(m.group(1)) != len(tables) + 1:
                raise SpecSyntaxError(ln, 1, "generators must appear in order 1, 2, ...")
            current = {}
            tables.append(current)
            heads.append(ln)
            continue
        m = _REP_RE.match(line.strip())
        if not m:
            raise SpecSyntaxError(ln, 1, f"expected 'rep (...) -> (...)', got {line.strip()!r}")
        if current is None:
            raise SpecSyntaxError(ln, 1, "rep line before any 'gen i:' header")
        indent = len(line) - len(line.lstrip())
        rep = _rep_vector(m, 1, ln, indent, chain.dim)
        column = indent + m.start(1) + 1
        if not all(0 <= x < side for x, side in zip(rep, space.rectangle)):
            sides = "x".join(map(str, space.rectangle))
            raise SpecSyntaxError(ln, column, f"rep ({m.group(1)}) lies outside the depth-{depth} coset rectangle {sides}")
        if rep in current:
            raise SpecSyntaxError(ln, column, f"repeated rep ({m.group(1)})")
        current[rep] = _rep_vector(m, 2, ln, indent, chain.dim)
    if len(tables) != d2:
        raise SpecSyntaxError(lineno, 1, f"expected {d2} generator tables, found {len(tables)}")
    for i, (ln, table) in enumerate(zip(heads, tables), start=1):
        if len(table) < space.size:  # its reps are distinct and in the rectangle, so one is missing
            missing = next(rep for rep in map(space.decode, space.atoms()) if rep not in table)
            raise SpecSyntaxError(ln, 1, f"gen {i} has no rep ({','.join(map(str, missing))})")
    return PiecewiseCocycle(chain, d2, depth, tuple(tables))


def _rep_vector(match, group: int, lineno: int, indent: int, dim: int) -> tuple[int, ...]:
    """Integer vector of length `dim` in one bracket of a rep line."""
    try:
        vec = _ints(match.group(group))
    except ValueError:
        vec = ()
    if len(vec) != dim:
        column = indent + match.start(group) + 1
        raise SpecSyntaxError(lineno, column, f"expected {dim} integers, got ({match.group(group)})")
    return vec


def emit_cocycle(cocycle: PiecewiseCocycle, chain_path: str) -> str:
    out = [f"chain={chain_path} J={cocycle.depth} d2={cocycle.d2}"]
    for i, table in enumerate(cocycle.tables, start=1):
        out.append(f"gen {i}:")
        for rep in sorted(table):
            out.append(
                "rep (" + ",".join(str(x) for x in rep) + ") -> ("
                + ",".join(str(x) for x in table[rep]) + ")"
            )
    return "\n".join(out)


def load_cocycle(path) -> PiecewiseCocycle:
    path = Path(path)
    cocycle = parse_cocycle(path.read_text(), base_dir=path.parent)
    validate(cocycle)
    return cocycle


# ---------------------------------------------------------------- descriptors

def parse_descriptor(text: str) -> SupergroupDescriptor:
    _, lineno, kv = _header(text, "descriptor")
    dim = _field(kv, "dim", lineno, int)
    entries = _field(kv, "shear", lineno, lambda text: [Fraction(t) for t in text.split(",")])
    if len(entries) != dim * dim:
        raise SpecSyntaxError(lineno, kv["shear"][1], f"shear needs {dim * dim} entries")
    shear = [entries[i * dim : (i + 1) * dim] for i in range(dim)]
    supports = _field(
        kv, "supports", lineno,
        lambda text: [set() if chunk in ("", "-") else set(_ints(chunk)) for chunk in text.split("|")],
    )
    if len(supports) != dim:
        raise SpecSyntaxError(lineno, kv["supports"][1], f"supports need {dim} groups separated by |")
    return SupergroupDescriptor.make(shear, supports)


def emit_descriptor(desc: SupergroupDescriptor) -> str:
    shear = ",".join(str(e) for row in desc.shear for e in row)
    sups = "|".join(",".join(str(p) for p in sorted(s)) or "-" for s in desc.supports)
    return f"dim={desc.dim} shear={shear} supports={sups}"


# ---------------------------------------------------------------- cones

def parse_cone(text: str) -> Cone:
    _, lineno, kv = _header(text, "cone")
    kind = _field(kv, "cone", lineno, default=None)
    if kind == "quadrant":
        dim = _field(kv, "dim", lineno, int)
        strict = _field(kv, "strict", lineno, _ints, ())
        try:
            return Cone.quadrant(dim, strict_axes=strict)
        except SpeedupError as err:  # a strict axis out of range
            raise SpecSyntaxError(lineno, kv["strict"][1], str(err)) from None
    if kind == "sector":
        u = _field(kv, "u", lineno, _ints)
        v = _field(kv, "v", lineno, _ints)
        include = _field(kv, "include", lineno, default="both")
        if include not in ("both", "u", "v", "none"):
            raise SpecSyntaxError(lineno, kv["include"][1], "include must be both, u, v or none")
        try:
            return Cone.sector(u, v, include_u=include in ("both", "u"), include_v=include in ("both", "v"))
        except SpeedupError as err:  # a bad ray, or rays that span no cone: at u unless u is a nonzero plane vector
            column = kv["v" if len(u) == 2 and any(u) else "u"][1]
            raise SpecSyntaxError(lineno, column, str(err)) from None
    if kind == "facets":
        dim = _field(kv, "dim", lineno, int)
        text = _field(kv, "normals", lineno)
        column = kv["normals"][1]
        normals = []
        for chunk in text.split(";"):
            *coords, flag = chunk.split(",")
            try:
                normal = tuple(Fraction(c) for c in coords)
            except (ValueError, ZeroDivisionError):
                normal = None
            if normal is None or len(normal) != dim or flag not in (">", ">="):
                raise SpecSyntaxError(lineno, column, f"bad facet {chunk!r}")
            normals.append((normal, flag == ">"))
            column += len(chunk) + 1
        return Cone.from_facets(normals)
    raise SpecSyntaxError(lineno, kv.get("cone", ("", 1))[1], "cone kind must be quadrant, sector, or facets")


def emit_cone(cone: Cone) -> str:
    if cone.sector_data is not None:
        u, v, iu, iv = cone.sector_data
        include = {(True, True): "both", (True, False): "u", (False, True): "v", (False, False): "none"}[(iu, iv)]
        return (
            f"cone=sector u={','.join(str(x) for x in u)} v={','.join(str(x) for x in v)}"
            f" include={include}"
        )
    normals = ";".join(
        ",".join(str(e) for e in n) + "," + (">" if strict else ">=") for n, strict in cone.facets
    )
    return f"cone=facets dim={cone.dim} normals={normals}"


def load_cone(path) -> Cone:
    return parse_cone(Path(path).read_text())


# ---------------------------------------------------------------- sniffing

def load_group_input(path):
    """Descriptor or chain, decided by the file's keys (CLI convenience)."""
    path = Path(path)
    text = path.read_text()
    for _, line in _content_lines(text):
        if "shear=" in line:
            return parse_descriptor(text)
        break
    return parse_chain(text, base_dir=path.parent)
