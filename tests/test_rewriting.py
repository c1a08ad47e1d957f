"""Worklist rewriting and trie-walking products against the loops they replaced.

``LeavittAlgebra._reduce`` keeps the non-admissible monomials in one
bucket per len(p), sorts each bucket once and jumps sibling-free runs;
``LpaElement.__mul__`` finds the partners of each left monomial by one
walk down a trie of the right factor's paths.  The oracles below are the
earlier versions: a rewrite loop that re-sorts every term before each
step and rewrites one edge per step, and the all-pairs product.  On
random multigraphs (loops, parallel edges, exits), and on such graphs
with a sibling-free run of 5-40 edges grafted on, both must give the
same terms in the same dict order, the same rewrite step count and the
same raw sum before reduction.  Every returned monomial is also checked
against the graph, and the step counts are pinned at the sizes the
benchmark runs.  One long term costs work linear in its length: a
counter of edge id hashes grows about 4 times, not 16, from length 6000
to 24000.
"""

import pytest

from leavitt import Graph, LeavittAlgebra, PrimeField, Rationals
from leavitt import lpa as lpa_module
from leavitt.graph import Path, paths_up_to
from leavitt.lpa import LpaElement, Monomial, _monomial_product

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

# labels whose string order differs from their creation order
LABELS = ("v2", "v10", "a", "z", "m1")
FIELDS = (Rationals(), PrimeField(3))


# -- oracles -------------------------------------------------------------------


def oracle_reduce(A, raw):
    """Rewrite the largest non-admissible monomial, re-sorting every step."""
    field, g = A.field, A.graph
    terms = {m: c for m, c in raw.items() if not field.is_zero(c)}
    steps = 0

    def put(m, c):
        acc = field.add(terms.get(m, field.zero()), c)
        if field.is_zero(acc):
            terms.pop(m, None)
        else:
            terms[m] = acc

    while True:
        bad = None
        for m in sorted(terms, key=Monomial.sort_key, reverse=True):
            if not A.is_admissible(m):
                bad = m
                break
        if bad is None:
            return terms, steps
        c = terms.pop(bad)
        eid = bad.p.edges[-1]
        v = g.edge(eid).src
        p0 = Path(bad.p.base, bad.p.edges[:-1], v)
        q0 = Path(bad.q.base, bad.q.edges[:-1], v)
        put(Monomial(p0, q0), c)
        for e in g.out_edges(v):
            if e.id == eid:
                continue
            put(
                Monomial(
                    Path(p0.base, p0.edges + (e.id,), e.dst),
                    Path(q0.base, q0.edges + (e.id,), e.dst),
                ),
                field.neg(c),
            )
        steps += 1


def oracle_raw_product(x, y):
    """The raw sum of the all-pairs product, before reduction."""
    field = x.algebra.field
    raw = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            m = _monomial_product(m1, m2)
            if m is None:
                continue
            raw[m] = field.add(raw.get(m, field.zero()), field.mul(c1, c2))
    return raw


# -- strategies ----------------------------------------------------------------


@st.composite
def multigraphs(draw):
    """Digraphs on up to 5 vertices, loops and parallel edges allowed,
    with at least one edge."""
    vs = draw(st.permutations(LABELS))[: draw(st.integers(1, 5))]
    ends = draw(
        st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), min_size=1, max_size=8)
    )
    # edge ids whose string order differs from their creation order
    return Graph(vs, [(f"e{(7 * k) % 11}", s, d) for k, (s, d) in enumerate(ends)])


@st.composite
def raw_sums(draw, A, max_terms=6):
    """A raw monomial -> coefficient map, not yet in normal form.

    Each term is (p s)(q s)* for paths p, q with a common range and a
    walk s from it that mostly follows distinguished edges, so chains of
    rewrites at several lengths occur; some terms come with all their
    sibling terms (p e)(q e)*, which makes the rewriting cancel.
    """
    g = A.graph
    by_end = {}
    for p in paths_up_to(g, 2):
        by_end.setdefault(p.end, []).append(p)
    raw = {}
    for _ in range(draw(st.integers(1, max_terms))):
        end = draw(st.sampled_from(sorted(by_end)))
        p = draw(st.sampled_from(by_end[end]))
        q = draw(st.sampled_from(by_end[end]))
        for _ in range(draw(st.integers(0, 3))):
            out = g.out_edges(p.end)
            if not out:
                break
            e = out[0] if draw(st.booleans()) else draw(st.sampled_from(out))
            p = Path(p.base, p.edges + (e.id,), e.dst)
            q = Path(q.base, q.edges + (e.id,), e.dst)
        c = A.field.from_int(draw(st.integers(-2, 2)))
        siblings = [(p, q)]
        if draw(st.booleans()):
            siblings = [
                (Path(p.base, p.edges + (e.id,), e.dst), Path(q.base, q.edges + (e.id,), e.dst))
                for e in g.out_edges(p.end)
            ] or siblings
        for pp, qq in siblings:
            m = Monomial(pp, qq)
            raw[m] = A.field.add(raw.get(m, A.field.zero()), c)
    return raw


@st.composite
def algebras(draw):
    return LeavittAlgebra(draw(multigraphs()), draw(st.sampled_from(FIELDS)))


@st.composite
def algebra_and_raw(draw):
    A = draw(algebras())
    return A, draw(raw_sums(A))


@st.composite
def algebra_and_factors(draw):
    A = draw(algebras())
    x = LpaElement(A, oracle_reduce(A, draw(raw_sums(A)))[0])
    y = LpaElement(A, oracle_reduce(A, draw(raw_sums(A)))[0])
    return A, x, y


@st.composite
def run_algebras(draw):
    """A multigraph with a sibling-free run grafted on: n = 5..40 new
    vertices h0..h(n-1) on a path x -> h0 -> ... -> h(n-1) -> y between
    two of its vertices, so each run edge but the first is the only edge
    out of its source.  The first edge's id sorts before the multigraph's
    edge ids or after them, so it is distinguished at x or (when x has
    other edges) it is not.  Returns the algebra, x and the run's ids."""
    g = draw(multigraphs())
    n = draw(st.integers(5, 40))
    x, y = draw(st.sampled_from(g.vertices)), draw(st.sampled_from(g.vertices))
    hs = [f"h{i}" for i in range(n)]
    chain = [x] + hs + [y]
    run = [draw(st.sampled_from(("d", "s")))] + [f"r{i:02d}" for i in range(1, n + 1)]
    edges = [(e.id, e.src, e.dst) for e in g.edges]
    edges += [(eid, chain[i], chain[i + 1]) for i, eid in enumerate(run)]
    field = draw(st.sampled_from(FIELDS))
    return LeavittAlgebra(Graph(list(g.vertices) + hs, edges), field), x, run


@st.composite
def run_sums(draw, A, x, run):
    """`raw_sums` plus 1-3 terms (p s)(q s)* for paths p, q of length
    <= 2 into x and s a prefix of the run, so their rewriting walks down
    sibling-free edges.  Some come with a second term (p s')(q s')* for a
    shorter prefix s', which lies on the first term's run, and some with
    a term (p s)(q' s)* for another q' of the same length, which has the
    same (p.base, q.base, len p - len q); either forbids the jump."""
    g, field = A.graph, A.field
    raw = draw(raw_sums(A))
    into_x = [p for p in paths_up_to(g, 2) if p.end == x]

    def add(p, q, s, c):
        m = Monomial(g.path(p.base, p.edges + s), g.path(q.base, q.edges + s))
        raw[m] = field.add(raw.get(m, field.zero()), field.from_int(c))

    for _ in range(draw(st.integers(1, 3))):
        p, q = draw(st.sampled_from(into_x)), draw(st.sampled_from(into_x))
        s = tuple(run[: draw(st.integers(1, len(run)))])
        add(p, q, s, draw(st.integers(1, 2)))
        shape = draw(st.sampled_from(("alone", "on the run", "same signature")))
        if shape == "on the run":
            add(p, q, s[: draw(st.integers(1, len(s)))], draw(st.integers(-2, 2)))
        elif shape == "same signature":
            twins = [r for r in into_x if len(r.edges) == len(q.edges) and r.base == q.base]
            add(p, draw(st.sampled_from(twins)), s, draw(st.integers(-2, 2)))
    return raw


@st.composite
def run_algebra_and_raw(draw):
    A, x, run = draw(run_algebras())
    return A, draw(run_sums(A, x, run))


@st.composite
def run_algebra_and_factors(draw):
    A, x, run = draw(run_algebras())
    x_ = LpaElement(A, oracle_reduce(A, draw(run_sums(A, x, run)))[0])
    y_ = LpaElement(A, oracle_reduce(A, draw(run_sums(A, x, run)))[0])
    return A, x_, y_


# -- differential tests ------------------------------------------------------------


@SETTINGS
@hypothesis.given(algebra_and_raw())
def test_normal_form_matches_sorted_rescan(case):
    A, raw = case
    want_terms, want_steps = oracle_reduce(A, raw)
    got, steps = A.normal_form_stats(raw)
    assert list(got.terms.items()) == list(want_terms.items())
    assert steps == want_steps


def _product_with_raw(A, x, y):
    """x * y, and the raw sum that __mul__ handed to normal_form."""
    seen = []

    def record(raw):
        seen.append(list(raw.items()))
        return LeavittAlgebra.normal_form(A, raw)

    A.normal_form = record
    try:
        result = x * y
    finally:
        del A.normal_form
    (raw,) = seen
    return result, raw


@SETTINGS
@hypothesis.given(algebra_and_factors())
def test_product_matches_all_pairs(case):
    A, x, y = case
    for left, right in ((x, y), (x.star(), x), (y, x.star()), (x.star(), y)):
        want_raw = oracle_raw_product(left, right)
        got, raw = _product_with_raw(A, left, right)
        assert raw == list(want_raw.items())
        want_terms, _ = oracle_reduce(A, want_raw)
        assert list(got.terms.items()) == list(want_terms.items())


@SETTINGS
@hypothesis.given(run_algebra_and_raw())
def test_run_normal_form_matches_sorted_rescan(case):
    """Sums that walk down grafted sibling-free runs: jumped or rewritten
    one edge per step, the terms, their dict order and the step count are
    the oracle's."""
    A, raw = case
    want_terms, want_steps = oracle_reduce(A, raw)
    got, steps = A.normal_form_stats(raw)
    assert list(got.terms.items()) == list(want_terms.items())
    assert steps == want_steps


@SETTINGS
@hypothesis.given(run_algebra_and_factors())
def test_run_product_matches_all_pairs(case):
    A, x, y = case
    for left, right in ((x, y), (x.star(), x), (y, x.star()), (x.star(), y)):
        want_raw = oracle_raw_product(left, right)
        got, raw = _product_with_raw(A, left, right)
        assert raw == list(want_raw.items())
        want_terms, _ = oracle_reduce(A, want_raw)
        assert list(got.terms.items()) == list(want_terms.items())


@SETTINGS
@hypothesis.given(algebra_and_raw())
def test_normal_form_terms_are_consistent_admissible_monomials(case):
    """Every returned monomial is admissible and made of two paths of the
    graph with one range, checked against the graph itself rather than
    against the oracle: a stale `end` left after an edge is dropped
    would show here."""
    A, raw = case
    x = A.normal_form(raw)
    for m in x.terms:
        assert A.graph.path(m.p.base, m.p.edges) == m.p
        assert A.graph.path(m.q.base, m.q.edges) == m.q
        assert m.p.end == m.q.end
        assert A.is_admissible(m)


# -- pinned counts at benchmark shape ---------------------------------------------


def _sum_ppstar(A, length):
    one = A.field.one()
    return {Monomial(p, p): one for p in paths_up_to(A.graph, length) if len(p) == length}


def test_fed_cycle_sum_ppstar_steps():
    """A tail t0 -> ... -> t59 -> c0 feeding the 7-cycle c0 -> ... -> c6 -> c0,
    over F_1000003: every vertex has one outgoing edge, so each p p* of
    length 20 takes 20 steps down to its base vertex."""
    tail, t = 60, 7
    ts = [f"t{i}" for i in range(tail)]
    cs = [f"c{i}" for i in range(t)]
    chain = ts + [cs[0]]
    edges = [(f"a{i}", chain[i], chain[i + 1]) for i in range(tail)]
    edges += [(f"b{i}", cs[i], cs[(i + 1) % t]) for i in range(t)]
    A = LeavittAlgebra(Graph(ts + cs, edges), PrimeField(1000003))
    raw = _sum_ppstar(A, 20)
    assert len(raw) == 67
    x, steps = A.normal_form_stats(raw)
    assert steps == 1340
    assert len(x.terms) == 67
    assert x == A.identity()


def test_complete3_with_loops_sum_ppstar_matches_oracle():
    """K_3 with a loop at every vertex (9 edges) over Q, |p| = 6."""
    vs = ["x", "y", "z"]
    A = LeavittAlgebra(Graph(vs, [(f"{s}{d}", s, d) for s in vs for d in vs]), Rationals())
    raw = _sum_ppstar(A, 6)
    assert len(raw) == 2187
    x, steps = A.normal_form_stats(raw)
    want_terms, want_steps = oracle_reduce(A, raw)
    assert steps == want_steps == 1092
    assert len(x.terms) == 3
    assert list(x.terms.items()) == list(want_terms.items())


# -- pinned counts on rose_2 -----------------------------------------------------


def _rose2_paths(length):
    edges = [()]
    for _ in range(length):
        edges = [p + (e,) for p in edges for e in ("a", "b")]
    return [Path("v", p, "v") for p in edges]


def _rose2():
    return LeavittAlgebra(Graph(["v"], [("a", "v", "v"), ("b", "v", "v")]))


def test_rose2_sum_ppstar_steps():
    A = _rose2()
    one = A.field.one()
    raw = {Monomial(p, p): one for p in _rose2_paths(9)}
    assert len(raw) == 512
    x, steps = A.normal_form_stats(raw)
    assert repr(x) == "<1*v>"
    assert steps == 511


def test_rose2_ystar_y_contracts_only_matching_pairs(monkeypatch):
    A = _rose2()
    one = A.field.one()
    v = Path("v", (), "v")
    y = A.element([(Monomial(p, v), one) for p in _rose2_paths(9)])
    calls = []

    def counted(m1, m2):
        calls.append(1)
        return _monomial_product(m1, m2)

    monkeypatch.setattr(lpa_module, "_monomial_product", counted)
    assert repr(y.star() * y) == "<512*v>"
    # the all-pairs loop made 512 * 512 = 262144 calls
    assert len(calls) == 512


def test_normal_form_returns_input_monomials_and_types_stay_frozen():
    A = _rose2()
    one = A.field.one()
    v, a = Path("v", (), "v"), Path("v", ("a",), "v")
    kept = Monomial(Path("v", ("a", "b"), "v"), a)
    x = A.normal_form({kept: one, Monomial(a, a): one})
    # a is distinguished at v, so a a* = v - b b*; a.b.(a)* is admissible
    assert repr(x) == "<1*v + -1*b.(b)* + 1*a.b.(a)*>"
    assert any(m is kept for m in x.terms)
    kept_hash, a_hash = hash(kept), hash(a)
    with pytest.raises(AttributeError):
        kept.p = v
    with pytest.raises(AttributeError):
        a.end = "w"
    assert kept.p == Path("v", ("a", "b"), "v") and a.end == "v"
    assert hash(kept) == kept_hash and hash(a) == a_hash


# -- work in the length of one long term ---------------------------------------


class _CountedId(str):
    """An edge id that counts the times it is hashed.  Every key that the
    product or the rewriting builds and looks up hashes each edge id in
    it, so the count follows the edge ids those keys hold.  Past `budget`
    it raises, so a quadratic route fails fast instead of running long."""

    hashes = 0
    budget = float("inf")

    def __hash__(self):
        _CountedId.hashes += 1
        if _CountedId.hashes > _CountedId.budget:
            raise AssertionError(f"more than {_CountedId.budget} edge id hashes")
        return str.__hash__(self)


def _aba_hashes(length):
    """Edge id hashes in a b a for a = p, one path of `length` edges round
    a 3-cycle, and its inner inverse b = p*: a b = p p* reduces down a
    sibling-free run of `length` edges, and (a b) a walks p once."""
    g = Graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a")])
    A = LeavittAlgebra(g, Rationals())
    ids = [_CountedId(f"e{i}") for i in range(3)]
    p = g.path("a", tuple(ids[i % 3] for i in range(length)))
    one = A.field.one()
    a = A.element([(Monomial(p, g.empty_path(p.end)), one)])
    b = a.star()
    _CountedId.hashes, _CountedId.budget = 0, 100 * length
    try:
        aba = a * b * a
        count = _CountedId.hashes
        # one rewrite step per edge, as before the run is jumped
        assert A.normal_form_stats({Monomial(p, p): one})[1] == length
    finally:
        _CountedId.budget = float("inf")
    assert aba == a
    return count


def test_long_term_aba_work_is_linear():
    """Four times the length costs about four times the work (16 times
    before runs were jumped and products walked a trie)."""
    small, large = _aba_hashes(6000), _aba_hashes(24000)
    assert large <= 5 * small
