"""Named cone catalog.

Each entry names a minimal cone by its invariance group, the component
names of its edge, and a default ambient dimension.  A cone is fixed by
its edge, so the closed-form margins are chosen by the edge, never by the
entry's name: `closed_form_for` matches the components that survive at
the ambient dimension (some vanish in low dimension, e.g. h_sym0 at one
quaternionic dimension), so any entry or classification edge equal to an
edge with a closed form gets it.  Each closed form is one batch kernel
over a stack of matrices (a single margin is the batch of one) and
agrees exactly with the translate-optimizer margin (both compute the
same pairing minimum over the polar base); the agreement is part of the
test suite, so neither route may be removed.

The catalog file format is a small INI-like key-value text:

    [P_C]
    group = un
    n = 4
    edge = c_skew

The environment variable CONEDGE_CATALOG can point at a replacement file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import structures as st
from .cones import EdgeCone
from .symspace import SymSubspace, direct_sum, zero_subspace

ENV_CATALOG = "CONEDGE_CATALOG"


@dataclass(frozen=True)
class CatalogSpec:
    name: str
    group_kind: str
    components: tuple[str, ...]   # edge component names; empty = zero edge
    default_n: int                # default ambient real dimension
    description: str = ""


DEFAULT_SPECS = (
    CatalogSpec("P", "on", (), 2,
                "positive-semidefinite cone; subfunctions are the convex ones"),
    CatalogSpec("laplace", "on", ("sym0",), 2,
                "trace half-space as a minimal cone (edge = traceless part)"),
    CatalogSpec("P_C", "un", ("c_skew",), 4,
                "complex hermitian positivity (plurisubharmonic functions)"),
    CatalogSpec("P_LAG", "un", ("c_sym0",), 4,
                "nonnegative traces on lagrangian planes"),
    CatalogSpec("P_H", "spn_sp1", ("h_skew3",), 4,
                "quaternionic hermitian positivity"),
    CatalogSpec("P_HSYM", "spn_sp1", ("h_sym0",), 8,
                "edge = traceless quaternion-hermitian block"),
    CatalogSpec("GL_IJK", "spn_s1", ("h_sym0", "e_j", "e_k"), 4,
                "planes that are I-complex and J,K-lagrangian"),
    CatalogSpec("P_EI", "spn_s1", ("e_i",), 4,
                "edge = I-aligned skew component only"),
)


def catalog_names() -> list[str]:
    return [s.name for s in DEFAULT_SPECS]


def edge_from_components(group: st.Group, components, comps=None) -> SymSubspace:
    """Direct sum of the named components; `comps` is the group's
    `irreducible_components`, computed here when not given."""
    if comps is None:
        comps = st.irreducible_components(group)
    parts = []
    for name in components:
        if name not in comps:
            raise KeyError(f"unknown component {name!r} for group {group.kind}")
        if name == "id":
            raise ValueError("the identity component is never a basic edge part")
        parts.append(comps[name])
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        return zero_subspace(group.dim)
    return direct_sum(*parts)


# ----------------------------------------------------------------------
# closed-form margins, chosen by the edge: each factory takes the ambient
# dimension and returns one stack kernel (m, n, n) -> (m,) equal to
# min <A, Z> over the polar base tr Z = 1
# ----------------------------------------------------------------------

def _psd(n):
    return lambda a: np.linalg.eigvalsh(a)[..., 0]


def _trace(n):
    return lambda a: np.trace(a, axis1=-2, axis2=-1) / n


def _hermitian(n):
    i_mat = st.complex_structure(n)
    return lambda a: np.linalg.eigvalsh(st.complex_sym_part(a, i_mat))[..., 0]


def _quaternionic(n):
    trip = st.quaternion_triple(n // 4)
    return lambda a: np.linalg.eigvalsh(st.quat_sym_part(a, trip))[..., 0]


def _lagrangian(i_mat):
    """Minimum of tr(A|_W)/k over the planes W lagrangian for the complex
    structure i_mat: the sum of the k smallest eigenvalues of the span part
    of A, divided by k; equal to (tr A - nuclear norm of (A + IAI)/2) / n."""
    n = i_mat.shape[0]
    k = n // 2

    def kernel(a):
        tr = np.trace(a, axis1=-2, axis2=-1) / n
        span = st.complex_skew_part(a, i_mat) + tr[:, None, None] * np.eye(n)
        return np.linalg.eigvalsh(span)[:, :k].sum(axis=1) / k

    return kernel


def _gl_ijk(n):
    """Minimum of tr(A|_W)/(2n) over I-complex, J/K-lagrangian planes:
    (tr A - nuclear norm of the I-aligned part) / N."""
    trip = st.quaternion_triple(n // 4)

    def kernel(a):
        lam = np.linalg.eigvalsh(st.e_structure_part(a, trip, "i"))
        return (np.trace(a, axis1=-2, axis2=-1) - np.abs(lam).sum(axis=1)) / n

    return kernel


# keyed on edge component names, matched on the components that survive at
# the ambient dimension.  The traceless edge makes the margin linear,
# <A, Id/n>; it comes before the empty (PSD) edge so that in dimension 1,
# where both edges are zero, the cone keeps its linear weight.
# h_sym0 + e_i is everything traceless that commutes with the quaternionic
# I, so its cone is the lagrangian cone of I.
_TRACE_EDGE = frozenset({"sym0"})
_CLOSED_FORMS = {
    _TRACE_EDGE: _trace,
    frozenset(): _psd,
    frozenset({"c_skew"}): _hermitian,
    frozenset({"c_sym0"}): lambda n: _lagrangian(st.complex_structure(n)),
    frozenset({"h_sym0", "e_i"}):
        lambda n: _lagrangian(st.quaternion_triple(n // 4).i),
    frozenset({"h_skew3"}): _quaternionic,
    frozenset({"h_sym0", "e_j", "e_k"}): _gl_ijk,
}


def closed_form_for(group: st.Group, components, comps):
    """(kernel, linear weight) of the closed form for the edge spanned by
    `components` of `group`, or (None, None) when none is known.

    `comps` is the group's `irreducible_components`.  A table key matches
    when it names components of this group and the same components survive
    (have positive dimension at this ambient size) in both, so two names
    for one edge get one closed form."""
    def surviving(names):
        return frozenset(c for c in names if comps[c].dim > 0)

    n = group.dim
    edge = surviving(components)
    for key, factory in _CLOSED_FORMS.items():
        if key <= comps.keys() and surviving(key) == edge:
            return factory(n), np.eye(n) / n if key == _TRACE_EDGE else None
    return None, None


def group_for(spec: CatalogSpec, n_real: int) -> st.Group:
    return st.Group(spec.group_kind, n_real)


def build_cone(name: str, n: int | None = None, *, check: bool = False,
               specs=None) -> EdgeCone:
    """Instantiate a catalog cone at ambient real dimension n.

    With check=True the edge is re-verified basic (slower; the catalog
    edges are traceless, which already forces basicness).
    """
    spec = find_spec(name, specs)
    n_real = n or spec.default_n
    group = group_for(spec, n_real)
    comps = st.irreducible_components(group)
    edge = edge_from_components(group, spec.components, comps)
    kernel, lin_w = closed_form_for(group, spec.components, comps)
    return EdgeCone(edge, check=check, name=spec.name, fast_margin=kernel,
                    linear_margin_weight=lin_w)


def find_spec(name: str, specs=None) -> CatalogSpec:
    for s in specs or load_default_specs():
        if s.name == name:
            return s
    raise KeyError(f"no catalog cone named {name!r}")


# ----------------------------------------------------------------------
# catalog file round trip
# ----------------------------------------------------------------------

def dump_catalog(specs=None) -> str:
    lines = ["# conedge cone catalog"]
    for s in specs or DEFAULT_SPECS:
        lines.append("")
        lines.append(f"[{s.name}]")
        lines.append(f"group = {s.group_kind}")
        lines.append(f"n = {s.default_n}")
        lines.append(f"edge = {','.join(s.components)}")
        if s.description:
            lines.append(f"description = {s.description}")
    return "\n".join(lines) + "\n"


def parse_catalog(text: str) -> list[CatalogSpec]:
    specs = []
    current: dict | None = None

    def flush():
        if current is None:
            return
        missing = {"group", "n"} - current.keys()
        if missing:
            raise ValueError(f"catalog entry {current.get('name')} missing {missing}")
        comps = tuple(c for c in current.get("edge", "").split(",") if c)
        specs.append(
            CatalogSpec(current["name"], current["group"], comps,
                        int(current["n"]), current.get("description", ""))
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            current = {"name": line[1:-1].strip()}
            continue
        if "=" not in line or current is None:
            raise ValueError(f"malformed catalog line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        current[key] = val
    flush()
    return specs


def load_default_specs() -> list[CatalogSpec]:
    path = os.environ.get(ENV_CATALOG)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_catalog(fh.read())
    return list(DEFAULT_SPECS)
