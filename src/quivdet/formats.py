"""The representation/morphism data file format and the named-object session.

Data files are line-oriented UTF-8 text over a previously loaded quiver:

    rep <name>
    dim <vertex> <n>
    map <arrow> <r>x<c> <entries...>       # row-major exact rationals

    morphism <name> <domain> <codomain>
    comp <vertex> <r>x<c> <entries...>

Unspecified dimensions are zero and unspecified matrices are zero maps.
Entries are exact rationals like ``3`` or ``-1/2`` (reduced mod p in F_p
mode).  A session resolves names against the data file first and falls back
to the canonical representations P_<vertex>, I_<vertex>, S_<vertex>.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import DataSyntaxError, SemanticError
from .linalg import Field, Mat, RATIONALS
from .quiver import Quiver, injective_at, projective_at, simple_at
from .reps import RepMorphism, Representation


def _parse_shape(token: str, lineno: int) -> tuple[int, int]:
    try:
        r, c = token.split("x")
        return int(r), int(c)
    except ValueError:
        raise DataSyntaxError(f"bad shape {token!r}, expected <rows>x<cols>", line=lineno) from None


def _parse_entries(field: Field, tokens, r: int, c: int, lineno: int) -> Mat:
    if len(tokens) != r * c:
        raise DataSyntaxError(
            f"expected {r * c} entries for a {r}x{c} matrix, got {len(tokens)}", line=lineno)
    try:
        vals = [field.parse(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as e:
        raise DataSyntaxError(f"bad matrix entry: {e}", line=lineno) from None
    rows = tuple(tuple(vals[i * c + j] for j in range(c)) for i in range(r))
    return Mat(field, r, c, rows)


@dataclass
class _RepBuilder:
    name: str
    line: int
    dims: dict = dc_field(default_factory=dict)
    matrices: dict = dc_field(default_factory=dict)   # arrow -> (Mat, line)


@dataclass
class _MorBuilder:
    name: str
    line: int
    dom: str
    cod: str
    matrices: dict = dc_field(default_factory=dict)   # vertex -> (Mat, line)


def _matrices(field: Field, given: dict, slots, what: str) -> tuple[Mat, ...]:
    """One matrix per slot (name, rows, cols): the given one, whose shape is
    checked against the slot at its own line, else zero."""
    out = []
    for name, r, c in slots:
        if name not in given:
            out.append(Mat.zero(field, r, c))
            continue
        m, lineno = given[name]
        if (m.rows, m.cols) != (r, c):
            raise DataSyntaxError(f"{what.format(name)} has shape {m.rows}x{m.cols}, "
                                  f"expected {r}x{c}", line=lineno)
        out.append(m)
    return tuple(out)


def parse_data_file(text: str, quiver: Quiver, field: Field = RATIONALS):
    """Parse a data file; returns ({name: Representation}, {name: RepMorphism}).

    Morphism endpoints may reference representations defined in the same file
    or the canonical P_/I_/S_ names."""
    reps: dict[str, Representation] = {}
    rep_builders: list[_RepBuilder] = []
    mor_builders: list[_MorBuilder] = []
    cur: _RepBuilder | _MorBuilder | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "rep":
            if len(parts) != 2:
                raise DataSyntaxError("expected 'rep <name>'", line=lineno)
            cur = _RepBuilder(parts[1], lineno)
            rep_builders.append(cur)
        elif kw == "morphism":
            if len(parts) != 4:
                raise DataSyntaxError("expected 'morphism <name> <domain> <codomain>'", line=lineno)
            cur = _MorBuilder(parts[1], lineno, parts[2], parts[3])
            mor_builders.append(cur)
        elif kw == "dim":
            if not isinstance(cur, _RepBuilder):
                raise DataSyntaxError("'dim' outside of a rep block", line=lineno)
            if len(parts) != 3:
                raise DataSyntaxError("expected 'dim <vertex> <n>'", line=lineno)
            if parts[1] not in quiver.vertex_index:
                raise DataSyntaxError(f"unknown vertex {parts[1]!r}", line=lineno)
            try:
                n = int(parts[2])
            except ValueError:
                raise DataSyntaxError(f"bad dimension {parts[2]!r}", line=lineno) from None
            if n < 0:
                raise DataSyntaxError("dimensions must be nonnegative", line=lineno)
            cur.dims[parts[1]] = n
        elif kw in ("map", "comp"):
            # the block a matrix directive belongs to, and what it names
            builder, block, key, names = (
                (_RepBuilder, "rep", "arrow", quiver.arrow_index) if kw == "map"
                else (_MorBuilder, "morphism", "vertex", quiver.vertex_index))
            if not isinstance(cur, builder):
                raise DataSyntaxError(f"'{kw}' outside of a {block} block", line=lineno)
            if len(parts) < 3:
                raise DataSyntaxError(f"expected '{kw} <{key}> <r>x<c> <entries>'", line=lineno)
            if parts[1] not in names:
                raise DataSyntaxError(f"unknown {key} {parts[1]!r}", line=lineno)
            r, c = _parse_shape(parts[2], lineno)
            cur.matrices[parts[1]] = (_parse_entries(field, parts[3:], r, c, lineno), lineno)
        else:
            raise DataSyntaxError(f"unknown directive {kw!r}", line=lineno)

    for rb in rep_builders:
        dims = tuple(rb.dims.get(v, 0) for v in quiver.vertices)
        vi = quiver.vertex_index
        action = _matrices(field, rb.matrices, [(a.name, dims[vi[a.target]], dims[vi[a.source]])
                                                for a in quiver.arrows], "matrix for arrow {!r}")
        if rb.name in reps:
            raise DataSyntaxError(f"duplicate rep name {rb.name!r}", line=rb.line)
        reps[rb.name] = Representation(quiver, field, dims, action)

    session = Session(quiver, field, reps, {})
    morphisms: dict[str, RepMorphism] = {}
    for mb in mor_builders:
        try:
            dom = session.representation(mb.dom)
            cod = session.representation(mb.cod)
        except SemanticError as e:
            raise DataSyntaxError(str(e), line=mb.line) from None
        comps = _matrices(field, mb.matrices, zip(quiver.vertices, cod.dims, dom.dims),
                          "component at vertex {!r}")
        try:
            mor = RepMorphism(dom, cod, comps)
        except SemanticError as e:
            raise DataSyntaxError(f"morphism {mb.name!r}: {e}", line=mb.line) from None
        if mb.name in morphisms:
            raise DataSyntaxError(f"duplicate morphism name {mb.name!r}", line=mb.line)
        morphisms[mb.name] = mor
    return reps, morphisms


@dataclass
class Session:
    """Named objects over one quiver and one field.

    Name resolution order: data-file representations, then the canonical
    P_<vertex> / I_<vertex> / S_<vertex>."""

    quiver: Quiver
    field: Field
    reps: dict
    morphisms: dict

    def representation(self, name: str) -> Representation:
        if name in self.reps:
            return self.reps[name]
        if len(name) > 2 and name[1] == "_":
            kind, vertex = name[0], name[2:]
            if vertex in self.quiver.vertex_index:
                if kind == "P":
                    return projective_at(self.quiver, vertex, self.field)
                if kind == "I":
                    return injective_at(self.quiver, vertex, self.field)
                if kind == "S":
                    return simple_at(self.quiver, vertex, self.field)
        raise SemanticError(f"unknown representation {name!r}")

    def morphism(self, name: str) -> RepMorphism:
        if name in self.morphisms:
            return self.morphisms[name]
        raise SemanticError(f"unknown morphism {name!r}")


def load_session(quiver: Quiver, field: Field, data_text: str | None) -> Session:
    if data_text is None:
        return Session(quiver, field, {}, {})
    reps, morphisms = parse_data_file(data_text, quiver, field)
    return Session(quiver, field, reps, morphisms)
