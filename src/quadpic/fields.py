"""Finite extension lattices with Witt-index, rational-point and
stable-birational oracles.

ExtensionLattice holds the poset of extensions, the form registry, the point
oracles and validate(); one subclass per backend supplies the Witt oracle
and the derived extensions.  real_lattice builds a real lattice, and
declared_lattice_from_data a declared one from a model file's data, whose
JSON format modelfile holds:

* RealLattice -- every extension carries a *level* (a power of two, or
  infinity for the formally real base).  The Witt index of a signature
  (p, m) at level s is computed from the balanced representative of
  p - m mod 2s in (-s, s]: i_W = (p + m - |w|) / 2.  Extending by the
  function field of an anisotropic quadric of dimension d drops the level
  to min(s, 2^(r-1)) where 2^(r-1) < d <= 2^r; isotropic quadrics are
  rational, so their function fields are purely transcendental and keep
  the level.  Nodes are added append-only, and Witt indices are memoized
  in one row per level (form key -> index), so a node added later at a
  known level is answered from the memo.  A query that must see every
  value its forms can take calls separate(forms), which adds one node per
  level that can matter and that no node holds yet.

* DeclaredLattice -- Witt indices come from an explicit table, kept as one
  row per token (form key -> index) that the loader interns, so that tokens
  with equal rows share one row id; extensions must pre-exist, so separate
  adds nothing.  Tables are checked by validate().

Oracles are pure given a frozen lattice.  Concurrent reads through every
oracle memo (witt_index, phi_affine, phi_det, active_index) of a lattice
that nothing grows meanwhile give the serial answers, which a test checks on
both backends; growing a lattice while others read it is not supported.
memos["pic"] is not covered: det and det_vector may register forms and
decompositions, so they grow the lattice they read.

Every oracle answer at an extension depends only on its Witt row, so only on
its oracle group: the level on the real backend, the id of its distinct Witt
row on the declared backend (a token without a row, as in a hand-built
lattice, is a group of its own).  add_extension files each token under the
group that the backend's _index_extension returns, in group_of (token ->
group) and in the group -> tokens store that token_groups lists, and hands
it its group's memo rows in rows_of (token -> {row name -> {form id ->
value}}); both maps refuse an unknown token on both backends.  The rows of
a group are made when the group is first filed, one per name of
ORACLE_ROWS, and every token of the group shares them, so a memo read is
rows_of[token][name] and one string-keyed get.  Lattice-wide sweeps and
validate evaluate once per group, and real_lattice works out each round's
kernels once per (level, pos - neg).  The "witt" row is the real backend's
Witt memo, keyed by form key, as RealLattice.witt_index refuses a declared
form before it; the twists layer's "affine" and "det" rows and the tower
layer's "tower" row take QuadraticForm.memo_id, which keeps a declared id
that spells a real key, or names a registered id at another dimension,
apart from the registered form.  decomp keeps its registries in memos, and
pic its det words and atom class vectors, keyed by form.  No memo key names
a token.
extension_tokens keeps its sorted list until add_extension changes the
tokens, and hands out a copy.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import NamedTuple

from .errors import ModelError
from .forms import (
    Grassmannian,
    ProjectiveQuadric,
    QuadraticForm,
    prime,
)
from .modelfile import model_sections

INFINITE_LEVEL = float("inf")

CONSTRUCTION_BASE = "base"


class Extension(NamedTuple):
    """A node of the lattice.

    construction is one of:
      "base"                       -- the ground field
      "ff:<form-id>"               -- function field of the quadric {form = 0}
      "gff:<form-id>:<n>"          -- function field of the Grassmannian G(Q, n)
      "join:<tok>|<tok>|..."       -- function field of a product
    """

    token: str
    parent: str | None
    construction: str


class Construction(NamedTuple):
    """A parsed construction string; kind is "" for an unrecognised one."""

    kind: str
    form: str = ""               # ff, gff: the form id
    planes: int = 0              # gff: the plane level
    parts: tuple[str, ...] = ()  # join: the constituent tokens


@functools.lru_cache(maxsize=4096)
def parse_construction(text: str) -> Construction:
    """Parse any construction string; a gff plane count is a ModelError unless
    it is written as extend_by_grassmannian writes one, str(n) for an n >= 0."""
    kind, sep, body = text.partition(":")
    if text == CONSTRUCTION_BASE:
        return Construction(text)
    if not sep or kind not in ("ff", "gff", "join"):
        return Construction("")
    if kind == "ff":
        return Construction(kind, form=body)
    if kind == "join":
        return Construction(kind, parts=tuple(body.split("|")))
    form, _, planes = body.rpartition(":")
    try:
        count = int(planes)
    except ValueError:
        raise ModelError(f"gff plane count {planes!r} is not an integer") from None
    if count < 0 or planes != str(count):
        raise ModelError(f"gff plane count {planes!r} is not written as a non-negative integer")
    return Construction(kind, form, count)


def _balanced(value: int, level) -> int:
    """Representative of value mod 2*level in the interval (-level, level]."""
    if level == INFINITE_LEVEL:
        return value
    modulus = 2 * int(level)
    r = value % modulus
    if r > level:
        r -= modulus
    return r


def _power_of_two_below(d: int) -> int:
    """The 2^(r-1) with 2^(r-1) < d <= 2^r, for d >= 2."""
    return 1 << ((d - 1).bit_length() - 1)


class Violation(NamedTuple):
    family: str
    form: str
    extension: str
    detail: str

    def render(self) -> str:
        return f"[{self.family}] form {self.form} at {self.extension}: {self.detail}"

    def to_json(self) -> dict:
        return self._asdict()


class ValidationReport(NamedTuple):
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        return "\n".join(v.render() for v in self.violations) if self.violations else "ok"

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


# the memo rows of every oracle group: the real backend's Witt row, the
# twists layer's two split-sum rows and the tower layer's active-index row
ORACLE_ROWS = ("witt", "affine", "det", "tower")


class _Groups(dict):
    """token -> its oracle group (the level or the row id) or its group's
    memo rows; an unknown token is refused, on both backends, before any
    oracle reads it."""

    __slots__ = ()

    def __missing__(self, token):
        raise ModelError(f"unknown extension {token!r}")


class ExtensionLattice:
    """Finite poset of field extensions and its forms; a subclass supplies the oracle."""

    def __init__(self):
        self._extensions: dict[str, Extension] = {}
        self._token_order: list[str] | None = None  # sorted tokens, None once stale
        self.group_of = _Groups()  # token -> oracle group: an answer at a token reads only that
        self.rows_of = _Groups()  # token -> its group's memo rows, shared by the group's tokens
        self._groups: dict[object, list[str]] = {}  # oracle group -> tokens, in insertion order
        self._forms: dict[str, QuadraticForm] = {}
        self._base: str | None = None
        # the registries and memos of the layers above that are not rows of an
        # oracle group: decomp's two registries under "decompositions" and
        # "classes", pic's memo under "pic"; each layer owns its keys, and no
        # key names a token
        self.memos: defaultdict[str, dict] = defaultdict(dict)
        self._ancestor_cache: dict[str, frozenset[str]] = {}

    # ----------------------------------------------------------- structure

    @property
    def base(self) -> str:
        if self._base is None:
            raise ModelError("lattice has no base extension")
        return self._base

    def add_extension(self, ext: Extension, level=None) -> str:
        """Add a node below existing ones, filed under its oracle group; level
        is the node's level on the real backend."""
        if "|" in ext.token:
            raise ModelError(f"extension token {ext.token!r} may not contain '|'")
        existing = self._extensions.get(ext.token)
        if existing is not None:
            if existing != ext:
                raise ModelError(f"extension token {ext.token!r} redeclared differently")
            return ext.token
        parts = parse_construction(ext.construction).parts
        if ext.construction == CONSTRUCTION_BASE:
            if self._base is not None:
                raise ModelError("lattice already has a base extension")
            if ext.parent is not None:
                raise ModelError("base extension cannot have a parent")
            self._base = ext.token
        elif ext.parent is not None:
            if ext.parent not in self._extensions:
                raise ModelError(f"unknown parent extension {ext.parent!r}")
        elif not parts:
            # nothing would lie below it, so validate could not compare it with the base
            raise ModelError(
                f"extension {ext.token!r} has neither a parent nor join constituents"
            )
        for part in parts:
            if part not in self._extensions:
                raise ModelError(f"join {ext.token!r} references unknown {part!r}")
        group = self._index_extension(ext, level)
        self._extensions[ext.token] = ext
        self.group_of[ext.token] = group
        tokens = self._groups.get(group)
        if tokens is None:
            tokens = self._groups[group] = []
            rows = {name: {} for name in ORACLE_ROWS}
        else:
            rows = self.rows_of[tokens[0]]
        tokens.append(ext.token)
        self.rows_of[ext.token] = rows
        self._token_order = None
        return ext.token

    def token_groups(self) -> list[list[str]]:
        """Every token, grouped so that each oracle answer is constant on a group.

        One group per level on the real backend, per distinct Witt row on the
        declared one, each listing its tokens in insertion order; groups must
        not be modified.
        """
        return list(self._groups.values())

    def extension(self, token: str) -> Extension:
        try:
            return self._extensions[token]
        except KeyError:
            raise ModelError(f"unknown extension {token!r}") from None

    def extension_tokens(self) -> list[str]:
        """Every token in sorted order, as a new list."""
        order = self._token_order
        if order is None:
            order = self._token_order = sorted(self._extensions)
        return order[:]

    def form(self, key: str) -> QuadraticForm:
        got = self._forms.get(key)
        if got is None:
            raise ModelError(f"unknown form {key!r}")
        return got

    def form_keys(self) -> list[str]:
        return sorted(self._forms)

    def holds(self, q: QuadraticForm) -> bool:
        """Whether q is the form registered under its key."""
        return self._forms.get(q.key) == q

    def require_held(self, q: QuadraticForm) -> None:
        """Refuse a declared form that the lattice does not hold under its key."""
        if not q.is_real and self._forms.get(q.key) != q:
            raise ModelError(f"declared form {q.key} is not registered")

    def ancestors(self, token: str) -> frozenset[str]:
        """Strict ancestors: parents and join constituents, transitively.

        A miss fills the cache for every node not yet in it, parents-first in
        insertion order and without recursion: each node is added after its
        parent and its join constituents, so their sets are already there.
        """
        cache = self._ancestor_cache
        cached = cache.get(token)
        if cached is not None:
            return cached
        self.extension(token)  # refuses an unknown token
        for tok, ext in self._extensions.items():
            if tok in cache:
                continue
            parents = set(parse_construction(ext.construction).parts)
            if ext.parent is not None:
                parents.add(ext.parent)
            cache[tok] = frozenset(parents).union(*(cache[p] for p in parents))
        return cache[token]

    # ------------------------------------------------------ point oracles

    def has_rational_point(self, grass: Grassmannian, extension: str) -> bool:
        """Point-existence oracle for the Grassmannian G(Q, n)."""
        return self.witt_index(grass.quadric.canonical_form, extension) > grass.planes

    def stably_birational(self, x: Grassmannian, y: Grassmannian) -> bool:
        """Mutual rational points over each other's function field."""
        ex = self.extend_by_grassmannian(self.base, x)
        ey = self.extend_by_grassmannian(self.base, y)
        return self.has_rational_point(y, ex) and self.has_rational_point(x, ey)

    # ---------------------------------------------------------- validation

    def validate(self) -> ValidationReport:
        """Check the four invariant families at every (form, extension).

        Every oracle group has one Witt row, read at its first token: a
        level's on the real backend, a distinct declared row on the declared
        one.  Over the rows, the ceiling is tested once per form and the
        codim-1 step once per prime link; monotonicity once per (group of a
        parent or join constituent, group of the token) edge, as a drop to an
        ancestor is a drop along some edge; and self-isotropy once per token,
        whose construction names its cell, read from its group's row.  Only a
        family that fails walks its cells, in the cell-by-cell report order;
        the monotonicity walk compares each distinct (ancestor group, token
        group) pair once.  A row that cannot be read whole sends validate to
        the table family, which reports every unreadable cell.
        """
        report = ValidationReport([])
        violations = report.violations
        keys = self.form_keys()
        forms = [self._forms[k] for k in keys]
        tokens = self.extension_tokens()

        # the Witt row of each oracle group, in form-key order, at the group's
        # first token; if one cannot be read, report every cell that cannot,
        # form by form
        groups = self.token_groups()
        table = [self._witt_row(group[0], keys) for group in groups]
        if None in table:
            for q in forms:
                for tok in tokens:
                    try:
                        self.witt_index(q, tok)
                    except ModelError as exc:
                        violations.append(Violation("table", q.key, tok, str(exc)))
            return report
        row_of = {tok: i for i, group in enumerate(groups) for tok in group}
        rows = [table[row_of[tok]] for tok in tokens]

        for i, (q, column) in enumerate(zip(forms, zip(*table))):
            top = q.dim // 2
            if not 0 <= min(column) <= max(column) <= top:
                violations.extend(
                    Violation("ceiling", q.key, tok, f"i_W = {row[i]} outside [0, {top}]")
                    for tok, row in zip(tokens, rows) if not 0 <= row[i] <= top)

        edges = {(row_of[ref], row_of[tok]) for tok, ext in self._extensions.items()
                 for ref in (ext.parent, *parse_construction(ext.construction).parts)
                 if ref is not None}
        if any(lo > hi for a, b in edges for lo, hi in zip(table[a], table[b])):
            # (key, lo, hi) of each failing column per (ancestor row, token row)
            drops: dict[tuple[int, int], list[tuple[str, int, int]]] = {}
            for tok in tokens:
                below = row_of[tok]
                for anc in sorted(self.ancestors(tok)):
                    above = row_of[anc]
                    failing = drops.get((above, below))
                    if failing is None:
                        failing = drops[above, below] = [
                            (key, lo, hi) for key, lo, hi in zip(keys, table[above], table[below])
                            if lo > hi]
                    violations.extend(
                        Violation("monotonicity", key, tok, f"i_W drops from {lo} at {anc} to {hi}")
                        for key, lo, hi in failing)

        column_of = {k: i for i, k in enumerate(keys)}
        links = [(i, column_of[p.key]) for i, q in enumerate(forms)
                 if (p := self.registered_prime(q)) is not None]
        for i, j in links:
            if not all(row[i] <= row[j] <= row[i] + 1 for row in table):
                violations.extend(
                    Violation("codim-1-step", keys[i], tok,
                              f"i_W({keys[i]}) = {row[i]} vs i_W({keys[j]}) = {row[j]}")
                    for tok, row in zip(tokens, rows) if not row[i] <= row[j] <= row[i] + 1)

        for tok in tokens:
            own = parse_construction(self._extensions[tok].construction)
            if own.kind not in ("ff", "gff"):
                continue
            try:
                form = self.form(own.form)
            except ModelError as exc:
                violations.append(Violation("self-isotropy", own.form, tok, f"unresolvable: {exc}"))
                continue
            value = table[row_of[tok]][column_of[form.key]]
            if form.dim >= 2 and value <= own.planes:
                detail = f"i_W = {value} over its own function field (need > {own.planes})"
                violations.append(Violation("self-isotropy", form.key, tok, detail))
        return report

    def _witt_row(self, token: str, keys: list[str]) -> list[int] | None:
        """The Witt row of token in keys order, read cell by cell; None, where
        a cell cannot be read, sends validate to its table family."""
        try:
            return [self.witt_index(self._forms[key], token) for key in keys]
        except ModelError:
            return None


class RealLattice(ExtensionLattice):
    """The real level model: nodes are made on demand, Witt indices memoized."""

    def _index_extension(self, ext: Extension, level):
        if level is None:
            raise ModelError("real-backend extension needs a level")
        return level

    def level(self, token: str):
        return self.group_of[token]

    def register_form(self, q: QuadraticForm, with_prime: bool = True) -> str:
        if not q.is_real:
            raise ModelError(f"declared form {q.key} in a real lattice")
        self._forms.setdefault(q.key, q)
        if with_prime:
            self._forms.setdefault(prime(q).key, prime(q))
        return q.key

    def prime_of(self, q: QuadraticForm) -> QuadraticForm:
        if not q.is_real:
            raise ModelError(f"declared form {q.key} has no prime link")
        return prime(q)

    def registered_prime(self, q: QuadraticForm) -> QuadraticForm | None:
        q_prime = prime(q)
        return q_prime if q_prime.key in self._forms else None

    def witt_index(self, q: QuadraticForm, extension: str) -> int:
        row = self.rows_of[extension]["witt"]
        # a declared id may spell a real key, so it is refused before the memo,
        # which is keyed by key alone
        if not q.is_real:
            raise ModelError(f"declared form {q.key} has no real signature")
        cached = row.get(q.key)
        if cached is not None:
            return cached
        result = (q.dim - abs(_balanced(q.pos - q.neg, self.group_of[extension]))) // 2
        row[q.key] = result
        return result

    def anisotropic_part(self, q: QuadraticForm, extension: str) -> QuadraticForm | None:
        """Anisotropic kernel of q over the extension (None for split forms)."""
        if not q.is_real:
            raise ModelError(f"declared form {q.key} has no real signature")
        w = _balanced(q.pos - q.neg, self.level(extension))
        if w == 0:
            return None
        return QuadraticForm.real(w, 0) if w > 0 else QuadraticForm.real(0, -w)

    def extend_by_function_field(self, extension: str, quadric: ProjectiveQuadric) -> str:
        """The node of a quadric's function field, made on first use by the level rule."""
        level = self.level(extension)
        if quadric.is_empty:
            raise ModelError("cannot take the function field of the empty quadric")
        child = f"{extension}/{quadric.key}"
        if child in self._extensions:
            return child
        form = quadric.canonical_form
        self.register_form(form, with_prime=False)
        if self.witt_index(form, extension) == 0:
            level = min(level, _power_of_two_below(form.dim))
        return self.add_extension(Extension(child, extension, f"ff:{quadric.key}"), level)

    def extend_by_grassmannian(self, extension: str, grass: Grassmannian) -> str:
        """Function field of G(Q, n), via the stably equivalent flag tower.

        G(Q, n) is stably birational to the flag variety F(Q, n), which is an
        iterated quadric fibration; each non-rational fiber is the quadric of
        the current anisotropic kernel.  The walk takes the function field of
        that kernel over the last node until Q has an n-plane there, that is,
        until the kernel of Q's form q is shorter than dim q - 2n.
        """
        q = grass.quadric.canonical_form
        shortest = q.dim - 2 * grass.planes
        while (kernel := self.anisotropic_part(q, extension)) and kernel.dim >= shortest:
            extension = self.extend_by_function_field(extension, ProjectiveQuadric(kernel))
        return extension

    def separate(self, forms) -> None:
        """Add the nodes at which every Witt index of the forms can differ.

        The Witt index of (p, m) at level s differs from its base value
        exactly when s < |p - m|, the dimension of its anisotropic part over
        the base.  So for each level s = 2^k below the largest |p - m| of the
        forms that no node holds yet, the function field of (s+1)<1> over the
        base is added, of level s; a level already held adds nothing.  A
        declared form is refused.
        """
        top = max((kernel.dim for q in forms
                   if (kernel := self.anisotropic_part(q, self.base)) is not None), default=1)
        for level in (1 << k for k in range((top - 1).bit_length())):
            if level not in self._groups:
                self.extend_by_function_field(
                    self.base, ProjectiveQuadric(QuadraticForm.real(level + 1, 0)))


class DeclaredLattice(ExtensionLattice):
    """Witt indices from an explicit table; every extension must pre-exist.

    The table is one row per token, _witt[token][form key], filled by
    declared_lattice_from_data, which also interns the rows: a token's oracle
    group is the id of its distinct row, or the token itself where it has
    none.  witt_index reads a cell of the table, and validate takes one row
    whole per group.
    """

    def __init__(self):
        super().__init__()
        self._witt: dict[str, dict[str, int]] = {}
        self._row_of: dict[str, int] = {}  # token -> interned row id, set by the loader
        self._prime_links: dict[str, str] = {}
        # smallest token per (parent, construction) and per (None, construction)
        self._constructed: dict[tuple[str | None, str], str] = {}

    def _index_extension(self, ext: Extension, level):
        for index in ((None, ext.construction), (ext.parent, ext.construction)):
            best = self._constructed.get(index)
            if best is None or ext.token < best:
                self._constructed[index] = ext.token
        return self._row_of.get(ext.token, ext.token)

    def register_form(self, q: QuadraticForm) -> str:
        if q.is_real:
            raise ModelError(f"real form {q.key} in a declared lattice")
        self._forms.setdefault(q.key, q)
        return q.key

    def prime_of(self, q: QuadraticForm) -> QuadraticForm:
        if q.is_real:
            return prime(q)
        link = self._prime_links.get(q.key)
        if link is None:
            raise ModelError(f"declared form {q.key} has no prime link")
        return self.form(link)

    def registered_prime(self, q: QuadraticForm) -> QuadraticForm | None:
        link = self._prime_links.get(q.key)
        return self._forms.get(link) if link is not None else None

    def _witt_row(self, token: str, keys: list[str]) -> list[int] | None:
        row = self._witt.get(token)
        if row is None:
            return None
        try:
            return list(map(row.__getitem__, keys))
        except KeyError:  # a form the row misses: the fill reports each cell
            return None

    def witt_index(self, q: QuadraticForm, extension: str) -> int:
        row = self._witt.get(extension)
        value = row.get(q.key) if row is not None else None
        # a declared id may spell a real key, and the real form must be refused
        if value is not None and not q.is_real:
            return value
        self.extension(extension)
        if q.is_real:
            raise ModelError(f"real form {q.key} is not in the declared table")
        raise ModelError(f"no declared Witt index for form {q.key} at {extension}")

    def anisotropic_part(self, q: QuadraticForm, extension: str) -> QuadraticForm | None:
        """Anisotropic kernel of q over the extension (None for split forms)."""
        hyperbolic = self.witt_index(q, extension)
        if hyperbolic == 0:
            return q
        remaining = q.dim - 2 * hyperbolic
        if remaining == 0:
            return None
        return QuadraticForm.declared(f"{q.key}.anis@{extension}", remaining)

    def extend_by_function_field(self, extension: str, quadric: ProjectiveQuadric) -> str:
        """The declared node of a quadric's function field over the extension."""
        self.extension(extension)
        if quadric.is_empty:
            raise ModelError("cannot take the function field of the empty quadric")
        construction = f"ff:{quadric.key}"
        found = self._constructed.get((extension, construction))
        if found is None:
            raise ModelError(
                f"declared model has no extension {construction} over {extension}"
            )
        return found

    def extend_by_grassmannian(self, extension: str, grass: Grassmannian) -> str:
        """The declared node of G(Q, n)'s function field: over the extension,
        else the smallest over any parent."""
        form = grass.quadric.canonical_form
        construction = (
            f"ff:{form.key}" if grass.planes == 0 else f"gff:{form.key}:{grass.planes}"
        )
        found = self._constructed.get((extension, construction))
        if found is None:
            found = self._constructed.get((None, construction))
        if found is None:
            raise ModelError(
                f"declared model has no extension {construction} for {grass!r}"
            )
        return found

    def separate(self, forms) -> None:
        """Add nothing: a declared lattice is fixed.  A real form is refused."""
        for q in forms:
            if q.is_real:
                raise ModelError(f"real form {q.key} is not in the declared table")


# ------------------------------------------------------------ real builder


# the generic-splitting tower depth of a real lattice when none is given
DEFAULT_DEPTH = 3


def real_lattice(forms=(), depth: int = DEFAULT_DEPTH) -> RealLattice:
    """Joint generic-splitting lattice of the given real forms.

    Nodes are added breadth-first: below each existing node, one function
    field per distinct anisotropic kernel quadric of a registered form, up
    to the given tower depth.  A node's children depend only on its level,
    so each round works them out at the first node of each level and gives
    the other nodes of that level the same children.  A kernel depends only
    on the level and pos - neg, so each level computes one kernel per value
    of pos - neg, from the first form in key order that has it.  The build
    stops early, before the given depth, once a round adds no node.
    """
    model = RealLattice()
    model.add_extension(Extension("base", None, CONSTRUCTION_BASE), level=INFINITE_LEVEL)
    for q in forms:
        model.register_form(q)
    frontier = [model.base]
    for _ in range(depth):
        if not frontier:  # the last round added no node, so no later one can
            break
        next_frontier = []
        # the first form in key order per pos - neg: the others share its kernels
        kept: dict[int, QuadraticForm] = {}
        for q in map(model.form, model.form_keys()):
            kept.setdefault(q.pos - q.neg, q)
        # level -> (quadric key, child level) per distinct kernel, in key order
        children: dict[float, list[tuple[str, float]]] = {}
        for token in frontier:
            level = model.level(token)
            known = children.get(level)
            if known is not None:
                for key, child_level in known:
                    next_frontier.append(model.add_extension(
                        Extension(f"{token}/{key}", token, f"ff:{key}"), child_level
                    ))
                continue
            known = children[level] = []
            for q in kept.values():
                kernel = model.anisotropic_part(q, token)
                if kernel is None or kernel.dim < 2:
                    continue
                quadric = ProjectiveQuadric(kernel)
                if f"{token}/{quadric.key}" in model._extensions:  # a shared kernel
                    continue
                child = model.extend_by_function_field(token, quadric)
                known.append((quadric.key, model.level(child)))
                next_frontier.append(child)
        frontier = next_frontier
    return model


# --------------------------------------------------------- declared models


def declared_lattice_from_data(data: dict, check: bool = True) -> DeclaredLattice:
    """Build a declared lattice from parsed JSON data.

    The JSON shape is checked, and the witt section read into per-token rows
    in one pass, by modelfile.model_sections before anything is built; the
    rows are interned before any extension is placed, so each token joins
    its row's oracle group.  Errors are rejection errors, in this order: a
    misfit of the JSON shape (a missing field, a value of the wrong JSON
    type), first in forms, then extensions, then witt; the structure's own
    defects (bad ids or constructions, cycles through parents or join
    constituents, no base); the first bad witt entry (unknown form, unknown
    extension, negative index, duplicate entry); a non-total table.  With
    check=True the four Witt invariant families are also enforced, rejecting
    on any violation.
    """
    forms, extensions, rows, witt_error = model_sections(data)
    model = DeclaredLattice()
    # tokens whose rows hold the same forms, with equal values of the same
    # type, share a row id, and so an oracle group
    row_ids: dict[tuple, int] = {}
    model._row_of = {
        token: row_ids.setdefault(
            (tuple(row), tuple(row.values()), tuple(map(type, row.values()))), len(row_ids))
        for token, row in rows.items()
    }

    for item in forms:
        try:
            q = QuadraticForm.declared(item["id"], item["dim"])
        except ValueError as exc:  # an empty id or a dim below 1
            raise ModelError(str(exc)) from None
        if q.key in model._forms:
            raise ModelError(f"duplicate form id {q.key!r}")
        model.register_form(q)
    for item in forms:
        link = item.get("prime")
        if link is None:
            continue
        if link not in model._forms:
            raise ModelError(f"form {item['id']!r} links to unknown prime {link!r}")
        expected = model._forms[item["id"]].dim + 1
        if model._forms[link].dim != expected:
            raise ModelError(
                f"prime link {item['id']!r} -> {link!r} must raise dim by one"
            )
        model._prime_links[item["id"]] = link

    pending = {item["id"]: item for item in extensions}
    if len(pending) != len(extensions):
        raise ModelError("duplicate extension ids")
    parts: dict[str, tuple[str, ...]] = {}
    for token, item in pending.items():
        try:
            parts[token] = parse_construction(item["construction"]).parts
        except ModelError as exc:
            raise ModelError(f"extension {token!r}: {exc}") from None
    # an extension is placed after its parent and its join constituents, in
    # the order of repeated passes over the pending ids in sorted order: its
    # pass is that of its latest reference, plus one if that reference sorts
    # after it.  Kahn's algorithm works the passes out in one walk; nothing
    # on a cycle through a reference is ever placed, and add_extension
    # refuses a reference that names no extension at all
    refs = {
        token: {ref for ref in (item.get("parent"), *parts[token]) if ref in pending}
        for token, item in pending.items()
    }
    waiting = {token: len(found) for token, found in refs.items()}
    users: dict[str, list[str]] = {token: [] for token in pending}
    for token, found in refs.items():
        for ref in found:
            users[ref].append(token)
    passes: dict[str, int] = {}
    ready = [token for token, n in waiting.items() if not n]
    for token in ready:  # grows as references are placed
        passes[token] = max((passes[ref] + (ref > token) for ref in refs[token]), default=0)
        for user in users[token]:
            waiting[user] -= 1
            if not waiting[user]:
                ready.append(user)
    for token in sorted(passes, key=lambda token: (passes[token], token)):
        item = pending[token]
        model.add_extension(Extension(token, item.get("parent"), item["construction"]))
    if len(passes) < len(pending):
        raise ModelError(f"parent graph has a cycle through {sorted(pending.keys() - passes)}")
    if model._base is None:
        raise ModelError("declared model has no base extension")

    if witt_error is not None:
        raise ModelError(witt_error)
    model._witt = rows
    # every filed entry is a distinct known (form, token), so the table is
    # total exactly when it has one entry per cell; otherwise name the first gap
    if sum(map(len, rows.values())) != len(model._forms) * len(model._extensions):
        tokens = model.extension_tokens()
        for fk in model.form_keys():
            for tok in tokens:
                if fk not in rows[tok]:
                    raise ModelError(f"witt table misses {fk} at {tok}")

    if check:
        report = model.validate()
        if not report.ok:
            raise ModelError("declared model rejected:\n" + report.render())
    return model
