"""Enumeration of invariant basic edges and their minimal cones.

For each of the four compact groups, every direct sum of non-identity
irreducible components (its `structures.GROUP_KINDS` row) is a candidate
edge, built by `catalog.edge_from_components`; all of them are traceless and
therefore basic, which the code verifies rather than assumes.  Each entry
reads its named family from one row of `catalog.FAMILIES`: the label, the
smallest previously-known family that already contains it (a larger
invariance group, verified by sampling) and whether its invariance group
is genuinely the circle-extended quaternionic one (verified to lose
invariance under the full enhanced group).  Its cone gets the closed form
`catalog.closed_form_for` picks, as a catalog cone with the same edge does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import structures as st
from .cones import EdgeCone, _positive_int, is_basic_edge
from .symspace import SymSubspace, as_rng

INVARIANCE_TOL = 1e-8
NON_INVARIANCE_RESID = 1e-4


class ClassificationError(AssertionError):
    """The enumerated catalog disagrees with the expected table."""


@dataclass
class CatalogEntry:
    group: st.Group
    components: tuple[str, ...]
    edge: SymSubspace
    cone: EdgeCone | None
    designated_larger: tuple           # sampler key of a containing group
    identified_with: str               # which named family this entry is
    new_for_group: bool = False        # genuinely circle-extended entries
    basic_report: object = None
    degenerate: bool = False           # some component collapsed to dim 0


# group kind -> name of its sampled group; a key's direction follows in brackets
_SAMPLER_NAMES = {"on": "orthogonal", "un": "unitary", "spn": "quaternionic",
                  "spn_sp1": "quaternionic-enhanced", "spn_s1": "quaternionic-circle"}


def _direction(key: tuple) -> str | None:
    """A sampler key's structure label; None for none or "std" (standard)."""
    return key[1] if len(key) > 1 and key[1] != "std" else None


def element_sampler(key: tuple, n_real: int):
    """`seed or rng -> g` for a sampler key (kind, optional direction)."""
    return st.group_sampler(st.Group(key[0], n_real), _direction(key))


def sampler_label(key: tuple) -> str:
    """The sampled group's name, with the key's direction in brackets."""
    direction = _direction(key)
    return _SAMPLER_NAMES[key[0]] + (f"[{direction}]" if direction else "")


def enumerate_basic_edges(group: st.Group, *, build_cones: bool = True,
                          seed: int = 0) -> list[CatalogEntry]:
    """All subsets of non-identity components, each verified basic."""
    comps = st.irreducible_components(group)
    names = [k for k in comps if k != "id"]
    families = cat.FAMILIES[group.kind]
    entries = []
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            degenerate = any(comps[c].dim == 0 for c in subset)
            edge = cat.edge_from_components(group, subset, comps)
            rep = is_basic_edge(edge, seed=seed)
            if not rep.basic or rep.indeterminate:
                raise ClassificationError(
                    f"subset {subset} of {group.kind} failed the basic-edge "
                    f"check (edge max {rep.edge_side_max})")
            family = families[subset]
            cone = None
            if build_cones:
                kernel, lin_w = cat.closed_form_for(group, subset, comps)
                cone = EdgeCone(edge, check=False, fast_margin=kernel,
                                linear_margin_weight=lin_w,
                                name=f"{group.kind}:{'+'.join(subset) or 'zero'}")
            entries.append(CatalogEntry(group, subset, edge, cone, family.larger,
                                        family.label, family.new, rep, degenerate))
    return entries


def invariance_residuals(edge: SymSubspace, sampler, samples: int, seed: int
                         ) -> np.ndarray:
    """Worst conjugation residual per sampled group element."""
    samples = _positive_int("samples", samples)
    rng = as_rng(seed)
    if edge.dim == 0:
        return np.zeros(samples)
    flat = edge.basis.reshape(edge.dim, -1)
    out = np.empty(samples)
    for t in range(samples):
        g = sampler(rng)
        conj = (g.T @ edge.basis @ g).reshape(edge.dim, -1)
        out[t] = np.linalg.norm(conj - (conj @ flat.T) @ flat, axis=1).max()
    return out


def invariance_check(edge: SymSubspace, sampler, samples: int = 100,
                     seed: int = 0) -> bool:
    resid = invariance_residuals(edge, sampler, samples, seed)
    return bool(resid.max() <= INVARIANCE_TOL)


# the classifiable kinds, each with one entry per subset of its components
EXPECTED_COUNTS = {kind: 2 ** len(st.GROUP_KINDS[kind][1])
                   for kind in ("on", "un", "spn_sp1", "spn_s1")}


def reproduce_catalog(group: st.Group, *, samples: int = 100, seed: int = 0
                      ) -> dict:
    """Catalog for one group with invariance verdicts per entry."""
    samples = _positive_int("samples", samples)
    entries = enumerate_basic_edges(group, build_cones=False, seed=seed)
    if len(entries) != EXPECTED_COUNTS[group.kind]:
        raise ClassificationError(
            f"{group.kind}: {len(entries)} entries, expected "
            f"{EXPECTED_COUNTS[group.kind]}")
    # the quaternionic table is enumerated over the plain quaternionic
    # unitary group; its finest components are not circle-invariant
    own = element_sampler(("spn",) if group.kind == "spn_s1" else (group.kind,),
                          group.dim)
    report = {"group": group.kind, "ambient": group.dim, "entries": []}
    failures = []
    for k, entry in enumerate(entries):
        rec = {
            "components": list(entry.components),
            "edge_dim": entry.edge.dim,
            "identified_with": entry.identified_with,
            "degenerate": entry.degenerate,
            "basic": True,
        }
        own_ok = invariance_check(entry.edge, own, samples, seed + 17 * k)
        rec["own_invariance"] = own_ok
        if not own_ok:
            failures.append((entry.components, "own invariance"))
        larger = element_sampler(entry.designated_larger, group.dim)
        rec["larger_group"] = sampler_label(entry.designated_larger)
        larger_ok = invariance_check(entry.edge, larger, samples, seed + 31 * k)
        rec["larger_invariance"] = larger_ok
        if not larger_ok:
            failures.append((entry.components, "designated larger invariance"))
        if group.kind == "spn_s1" and entry.new_for_group and not entry.degenerate:
            full = element_sampler(("spn_sp1",), group.dim)
            resid = invariance_residuals(entry.edge, full, samples, seed + 43 * k)
            broken = int((resid > NON_INVARIANCE_RESID).sum())
            rec["enhanced_breaks"] = broken
            rec["enhanced_break_rate"] = broken / samples
            if broken < int(0.95 * samples):
                failures.append((entry.components, "expected loss of enhanced invariance"))
        report["entries"].append(rec)
    report["failures"] = [list(map(str, f)) for f in failures]
    if failures:
        raise ClassificationError(f"catalog mismatches: {failures}")
    return report


def full_classification(n_quaternionic: int = 2, n_low: int = 3, *,
                             samples: int = 100, seed: int = 0) -> dict:
    """Full classification run over the four groups.

    Low-rank degeneracies (quaternionic n=1, complex n=1) are flagged in
    the per-entry records rather than silently merged.
    """
    samples = _positive_int("samples", samples)
    groups = [st.Group(kind, count * st.coordinate_width(st.GROUP_KINDS[kind][0]))
              for kind, count in (("on", n_low), ("un", n_low),
                                  ("spn_sp1", n_quaternionic), ("spn_s1", n_quaternionic))]
    out = {"samples": samples, "tables": []}
    for k, g in enumerate(groups):
        out["tables"].append(reproduce_catalog(g, samples=samples, seed=seed + 101 * k))
    out["counts"] = {t["group"]: len(t["entries"]) for t in out["tables"]}
    out["note"] = (
        "larger-group invariance is sampled evidence: positive checks bound "
        "the invariance group from below, negative checks refute containment; "
        "exactness of the group is not decidable by sampling"
    )
    return out


def format_catalog_table(report: dict) -> str:
    lines = []
    for table in report["tables"]:
        lines.append(f"group {table['group']} on R^{table['ambient']}")
        for rec in table["entries"]:
            comps = "+".join(rec["components"]) or "(zero)"
            flags = []
            if rec["degenerate"]:
                flags.append("degenerate")
            if "enhanced_breaks" in rec:
                flags.append(f"breaks enhanced invariance {rec['enhanced_breaks']}/{report['samples']}")
            lines.append(
                f"  {comps:<28} dim {rec['edge_dim']:>3}  -> {rec['identified_with']:<12}"
                f" invariant under {rec['larger_group']}"
                + (f"  [{', '.join(flags)}]" if flags else "")
            )
    return "\n".join(lines)
