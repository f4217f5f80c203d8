import numpy as np
import pytest

from conedge import classify as cl
from conedge import structures as st
from conedge import symspace as ss


class TestEnumeration:
    def test_counts(self):
        for kind, n_real, want in (("on", 3, 2), ("un", 4, 4),
                                   ("spn_sp1", 8, 4), ("spn_s1", 8, 16)):
            entries = cl.enumerate_basic_edges(st.Group(kind, n_real),
                                               build_cones=False)
            assert len(entries) == want

    def test_on_entries(self):
        entries = cl.enumerate_basic_edges(st.Group("on", 3), build_cones=False)
        labels = {e.identified_with for e in entries}
        assert labels == {"P", "laplace"}
        dims = sorted(e.edge.dim for e in entries)
        assert dims == [0, 5]

    def test_un_contains_both_new_families(self):
        entries = cl.enumerate_basic_edges(st.Group("un", 4), build_cones=False)
        labels = [e.identified_with for e in entries]
        assert "P_LAG" in labels and "P_C" in labels

    def test_spn_s1_powerset(self):
        entries = cl.enumerate_basic_edges(st.Group("spn_s1", 8), build_cones=False)
        assert len(entries) == 16
        assert len({e.components for e in entries}) == 16

    def test_every_edge_traceless(self):
        for kind, n_real in (("un", 4), ("spn_s1", 8)):
            for e in cl.enumerate_basic_edges(st.Group(kind, n_real),
                                              build_cones=False):
                for b in e.edge.basis:
                    assert abs(ss.inner(b, np.eye(n_real))) <= 1e-10

    def test_all_basic(self):
        for e in cl.enumerate_basic_edges(st.Group("spn_sp1", 8), build_cones=False):
            assert e.basic_report.basic and not e.basic_report.indeterminate

    def test_degenerate_flag(self):
        entries = cl.enumerate_basic_edges(st.Group("spn_s1", 4), build_cones=False)
        degs = [e for e in entries if e.degenerate]
        # the traceless quaternion-hermitian block vanishes at one coordinate
        assert degs and all("h_sym0" in e.components for e in degs)


class TestEntryKernels:
    """Every entry whose edge has a closed form gets it, and it agrees with
    the translate optimizer."""

    @pytest.mark.parametrize("kind, n", [("un", 4), ("spn_sp1", 8),
                                         ("spn_s1", 4), ("spn_s1", 8)])
    def test_kernels_match_optimizer(self, kind, n):
        rng = np.random.default_rng(11)
        for entry in cl.enumerate_basic_edges(st.Group(kind, n)):
            if entry.cone._fast_margin is None:
                continue
            for _ in range(2):
                a = ss.random_symmetric(n, rng)
                m_opt, *_ = entry.cone.optimizer_margin(a)
                assert abs(m_opt - entry.cone.margin(a)) <= 1e-8, entry.identified_with

    def test_spn_s1_entries_without_kernel(self):
        entries = cl.enumerate_basic_edges(st.Group("spn_s1", 8))
        without = {e.identified_with for e in entries if e.cone._fast_margin is None}
        assert without == {"P_HSYM", "P_EI[i]", "P_EI[j]", "P_EI[k]"}


class TestInvariance:
    def test_traceless_orthogonal_invariant(self):
        comps = st.irreducible_components(st.Group("on", 3))
        sampler = cl.element_sampler(("on",), 3)
        assert cl.invariance_check(comps["sym0"], sampler, samples=40, seed=0)

    def test_complex_skew_unitary_invariant(self):
        comps = st.irreducible_components(st.Group("un", 4))
        sampler = cl.element_sampler(("un", "std"), 4)
        assert cl.invariance_check(comps["c_skew"], sampler, samples=40, seed=0)

    def test_ei_not_invariant_under_enhanced_group(self):
        comps = st.irreducible_components(st.Group("spn_s1", 8))
        sampler = cl.element_sampler(("spn_sp1",), 8)
        resid = cl.invariance_residuals(comps["e_i"], sampler, samples=40, seed=0)
        assert (resid > cl.NON_INVARIANCE_RESID).mean() >= 0.95

    def test_ei_invariant_under_circle(self):
        comps = st.irreducible_components(st.Group("spn_s1", 8))
        sampler = cl.element_sampler(("spn_s1", "i"), 8)
        assert cl.invariance_check(comps["e_i"], sampler, samples=40, seed=1)

    def test_unitary_for_structure(self):
        trip = st.quaternion_triple(2)
        sampler = cl.element_sampler(("un", "j"), 8)
        for s in range(5):
            g = sampler(s)
            assert np.abs(g @ trip.j - trip.j @ g).max() <= 1e-9
            assert np.abs(g.T @ g - np.eye(8)).max() <= 1e-10

    @pytest.mark.parametrize("key, label", [
        (("on",), "orthogonal"), (("un",), "unitary"), (("un", "std"), "unitary"),
        (("un", "j"), "unitary[j]"), (("spn",), "quaternionic"),
        (("spn_sp1",), "quaternionic-enhanced"), (("spn_s1", "k"), "quaternionic-circle[k]")])
    def test_sampler_label(self, key, label):
        assert cl.sampler_label(key) == label

    def test_std_direction_is_the_standard_sampler(self):
        assert cl.element_sampler(("un", "std"), 4) is cl.element_sampler(("un",), 4)


BAD_SAMPLES = [0, -3, 2.5, True]


class TestBadSamples:
    """A bad sample count is refused where it enters, before any work."""

    EDGE = st.irreducible_components(st.Group("on", 3))["sym0"]

    @pytest.mark.parametrize("samples", BAD_SAMPLES)
    def test_invariance_residuals(self, samples):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            cl.invariance_residuals(self.EDGE, cl.element_sampler(("on",), 3), samples, 0)

    @pytest.mark.parametrize("samples", BAD_SAMPLES)
    def test_invariance_check(self, samples):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            cl.invariance_check(self.EDGE, cl.element_sampler(("on",), 3), samples=samples)

    @pytest.mark.parametrize("samples", BAD_SAMPLES)
    def test_reproduce_catalog(self, samples):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            cl.reproduce_catalog(st.Group("on", 3), samples=samples)

    @pytest.mark.parametrize("samples", BAD_SAMPLES)
    def test_full_classification(self, samples):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            cl.full_classification(1, 2, samples=samples)

    def test_numpy_integer_count(self):
        sampler = cl.element_sampler(("on",), 3)
        assert cl.invariance_residuals(self.EDGE, sampler, np.int64(3), 0).shape == (3,)


class TestReproduceTables:
    def test_full_run(self):
        rep = cl.full_classification(n_quaternionic=2, n_low=3,
                                          samples=25, seed=0)
        assert rep["counts"] == {"on": 2, "un": 4, "spn_sp1": 4, "spn_s1": 16}

    def test_spn_s1_new_entries(self):
        rep = cl.reproduce_catalog(st.Group("spn_s1", 8), samples=25, seed=0)
        new = [r for r in rep["entries"] if "enhanced_breaks" in r]
        assert len(new) == 6  # three singles and three triples
        for r in new:
            assert r["enhanced_breaks"] >= 24

    def test_un_sym0_is_orthogonal_invariant(self):
        rep = cl.reproduce_catalog(st.Group("un", 4), samples=25, seed=0)
        full = [r for r in rep["entries"]
                if r["components"] == ["c_sym0", "c_skew"]][0]
        assert full["larger_group"] == "orthogonal"
        assert full["larger_invariance"]

    def test_spn_sp1_table(self):
        rep = cl.reproduce_catalog(st.Group("spn_sp1", 8), samples=25, seed=0)
        labels = [r["identified_with"] for r in rep["entries"]]
        assert labels == ["P", "P_HSYM", "P_H", "laplace"]

    def test_gl_entry_matches_named_edge(self):
        entries = cl.enumerate_basic_edges(st.Group("spn_s1", 8), build_cones=False)
        gl = [e for e in entries
              if e.components == ("h_sym0", "e_j", "e_k")][0]
        from conedge import catalog as cat
        named = cat.build_cone("GL_IJK", 8)
        assert ss.subspace_equal(gl.edge, named.edge, 1e-9)

    def test_format_table(self):
        rep = cl.full_classification(n_quaternionic=1, n_low=2,
                                          samples=10, seed=0)
        text = cl.format_catalog_table(rep)
        assert "group on" in text and "group spn_s1" in text
