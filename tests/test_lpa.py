"""The path algebra: relations, normal forms, grading, graded dimensions."""

import random

import pytest

from corpus import build_corpus, build_negative
from leavitt import (
    GraphError,
    InfiniteEnumerationError,
    LeavittAlgebra,
    Monomial,
    PrimeField,
    paths_up_to,
    special_edges,
)


def algebra(name):
    return LeavittAlgebra(build_corpus()[name])


def test_special_edges():
    corpus = build_corpus()
    assert special_edges(corpus["a3"]) == {"v1": "e1", "v2": "e2"}
    assert special_edges(corpus["parallel"]) == {"v1": "a"}
    assert special_edges(corpus["loop"]) == {"v1": "c"}
    assert special_edges(corpus["sink_loop"]) == {"z": "c"}


def test_defining_relations_hold():
    """A1, A2, CK1, CK2 as identities of canonical forms, on every corpus graph."""
    for name, g in build_corpus().items():
        A = LeavittAlgebra(g)
        vs = {v: A.vertex(v) for v in g.vertices}
        for u in g.vertices:
            for v in g.vertices:
                want = vs[u] if u == v else A.zero()
                assert vs[u] * vs[v] == want, name
        for e in g.edges:
            fe, ge = A.edge(e.id), A.ghost(e.id)
            assert vs[e.src] * fe == fe and fe * vs[e.dst] == fe, name
            assert vs[e.dst] * ge == ge and ge * vs[e.src] == ge, name
        for e1 in g.edges:
            for e2 in g.edges:
                prod = A.ghost(e1.id) * A.edge(e2.id)
                want = vs[e1.dst] if e1.id == e2.id else A.zero()
                assert prod == want, name
        for v in g.vertices:
            out = g.out_edges(v)
            if not out:
                continue
            acc = A.zero()
            for e in out:
                acc = acc + A.edge(e.id) * A.ghost(e.id)
            assert acc == vs[v], name


def test_identity_is_unit():
    rng = random.Random(5)
    for name, g in build_corpus().items():
        A = LeavittAlgebra(g)
        one = A.identity()
        for _ in range(10):
            x = _random_element(A, rng)
            assert one * x == x and x * one == x, name


def _random_element(A, rng, max_deg=2, max_terms=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(-max_deg, max_deg)
        basis = A.basis_monomials(d)
        if basis:
            terms.append((rng.choice(basis), A.field.from_int(rng.randint(-3, 3))))
    return A.element(terms)


def test_single_edge_rewrites_to_vertex():
    A = algebra("a2")
    e = A.edge("e1")
    assert e * e.star() == A.vertex("v1")


def test_parallel_edge_rewrite():
    # with two edges a, b out of v1 and a distinguished, a a* = v1 - b b*
    A = algebra("parallel")
    a, b = A.edge("a"), A.edge("b")
    assert a * a.star() == A.vertex("v1") - b * b.star()
    # b is not distinguished, so b b* is already canonical
    bb = b * b.star()
    assert len(bb.terms) == 1


def test_path_products():
    A = algebra("a3")
    e1, e2 = A.edge("e1"), A.edge("e2")
    p = e1 * e2
    assert list(p.terms) == [
        Monomial(A.graph.path("v1", ("e1", "e2")), A.graph.empty_path("v3"))
    ]
    assert e2 * e1 == A.zero()  # ranges do not meet
    assert p.star() == e2.star() * e1.star()


def test_admissibility():
    A = algebra("a3")
    g = A.graph
    bad = Monomial(g.path("v1", ("e1", "e2")), g.path("v2", ("e2",)))
    assert not A.is_admissible(bad)
    ok = Monomial(g.path("v1", ("e1", "e2")), g.empty_path("v3"))
    assert A.is_admissible(ok)
    # rewriting the inadmissible pair: v2 has a single edge, so the
    # correction sum is empty and only the shortened pair remains
    el = A.monomial_element(bad.p, bad.q)
    assert list(el.terms) == [Monomial(g.path("v1", ("e1",)), g.empty_path("v2"))]


def test_degree_and_components():
    A = algebra("a3")
    e1, e2 = A.edge("e1"), A.edge("e2")
    assert e1.degree() == 1 and e1.star().degree() == -1
    assert A.vertex("v1").degree() == 0
    mixed = e1 + A.vertex("v1")
    assert mixed.degree() is None and not mixed.is_homogeneous()
    assert A.zero().degree() is None and A.zero().is_homogeneous()
    assert mixed.component(1) == e1 and mixed.component(0) == A.vertex("v1")
    assert mixed.component(2).is_zero()
    assert mixed.component(0) + mixed.component(1) == mixed


def test_involution_properties():
    rng = random.Random(6)
    for name in ("a3", "cyc2", "fedcycle"):
        A = algebra(name)
        for _ in range(25):
            x, y = _random_element(A, rng), _random_element(A, rng)
            assert (x * y).star() == y.star() * x.star(), name
            assert x.star().star() == x, name


def test_degree_additivity():
    rng = random.Random(7)
    from leavitt import sample_homogeneous

    for name in ("a3", "cyc3", "tree", "fedcycle"):
        A = algebra(name)
        for _ in range(30):
            x = sample_homogeneous(A, rng)
            y = sample_homogeneous(A, rng)
            p = x * y
            if not p.is_zero():
                assert p.degree() == x.degree() + y.degree(), name


def test_graded_dim_frozen_values():
    A = algebra("a3")
    assert [A.graded_dim(n) for n in (-2, -1, 0, 1, 2)] == [1, 2, 3, 2, 1]
    assert A.graded_dim(3) == 0
    L = algebra("loop")
    assert all(L.graded_dim(n) == 1 for n in range(-5, 6))
    C2 = algebra("cyc2")
    assert all(C2.graded_dim(n) == 2 for n in range(-5, 6))
    C3 = algebra("cyc3")
    assert all(C3.graded_dim(n) == 3 for n in range(-5, 6))


def test_degree_one_basis_of_line():
    A = algebra("a3")
    g = A.graph
    basis = A.basis_monomials(1)
    assert set(basis) == {
        Monomial(g.path("v1", ("e1",)), g.empty_path("v2")),
        Monomial(g.path("v2", ("e2",)), g.empty_path("v3")),
    }


def test_graded_dim_guards():
    t = build_negative()["toeplitz"]
    A = LeavittAlgebra(t)
    with pytest.raises(InfiniteEnumerationError):
        A.graded_dim(0)
    # truncated counts exist and grow with the bound
    small = A.graded_dim(0, length_bound=2)
    large = A.graded_dim(0, length_bound=5)
    assert 0 < small < large


def test_normal_form_idempotent_and_schedule_independent():
    """Reducing in one sweep or in split batches lands on the same form."""
    rng = random.Random(8)
    for name in ("a3", "parallel", "fedcycle"):
        A = LeavittAlgebra(build_corpus()[name], PrimeField(7))
        g = A.graph
        paths = paths_up_to(g, 3)
        by_end = {}
        for p in paths:
            by_end.setdefault(p.end, []).append(p)
        for _ in range(40):
            raw = {}
            for _ in range(rng.randint(1, 4)):
                end = rng.choice(list(by_end))
                p = rng.choice(by_end[end])
                q = rng.choice(by_end[end])
                m = Monomial(p, q)
                raw[m] = A.field.add(raw.get(m, 0), rng.randrange(1, 7))
            whole = A.normal_form(dict(raw))
            # idempotence
            again = A.normal_form(dict(whole.terms))
            assert again == whole, name
            # split schedule
            items = sorted(raw.items(), key=lambda kv: kv[0].sort_key())
            cut = rng.randint(0, len(items))
            left = A.normal_form(dict(items[:cut]))
            right = A.normal_form(dict(items[cut:]))
            assert left + right == whole, name


def test_normal_form_stats_counts_steps():
    A = algebra("parallel")
    g = A.graph
    bad = Monomial(g.path("v1", ("a",)), g.path("v1", ("a",)))
    _, steps = A.normal_form_stats({bad: A.field.one()})
    assert steps == 1
    _, steps = A.normal_form_stats({})
    assert steps == 0


def test_element_json_round_trip():
    A = algebra("fedcycle")
    rng = random.Random(9)
    for _ in range(10):
        x = _random_element(A, rng)
        assert A.element_from_json(x.to_json()) == x
    # inadmissible input normalizes on the way in
    g = A.graph
    data = [
        {"p": ["k1"], "p_base": "c1", "q": ["k1"], "q_base": "c1", "coeff": "1"}
    ]
    el = A.element_from_json(data)
    assert el == A.vertex("c1")  # single edge out of c1, so k1 k1* = c1
    with pytest.raises(GraphError):
        A.element_from_json([{"p": ["k1"], "p_base": "c1"}])
    with pytest.raises(GraphError):
        A.element_from_json({"not": "a list"})


def test_mixed_algebra_rejected():
    A = algebra("a3")
    B = LeavittAlgebra(build_corpus()["a3"], PrimeField(5))
    with pytest.raises(ValueError):
        A.vertex("v1") * B.vertex("v1")
    with pytest.raises(TypeError):
        A.vertex("v1") + 3


def test_monomial_element_validates_ranges():
    A = algebra("a3")
    g = A.graph
    with pytest.raises(GraphError):
        A.monomial_element(g.path("v1", ("e1",)), g.empty_path("v3"))
