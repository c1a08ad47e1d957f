"""The Leavitt path algebra of a finite graph over an exact field.

Generators: one idempotent per vertex, one generator per edge e and one
per its ghost twin e*.  Relations:

* vertices are orthogonal idempotents,
* s(e) e = e = e r(e) and the mirror relations for ghosts,
* e* f = (r(e) if e == f else 0) for edges e, f,
* v = sum of e e* over all e with source v, at every non-sink v.

Every element is a linear combination of monomials p q* where p, q are
paths with the same range.  The last relation lets one such monomial be
rewritten whenever p and q both end in a distinguished edge; fixing, at
each non-sink vertex, the lexicographically smallest outgoing edge as
distinguished yields a confluent rewriting system, and the surviving
("admissible") monomials form a K-basis.  ``LeavittAlgebra.normal_form``
is that reduction; all arithmetic funnels through it, so equality of
elements is equality of canonical forms.

Normal forms and products are linear in path length.  A step down a
distinguished edge that is the only edge out of its source rewrites
p g (q g)* to p q* and nothing else, so `_reduce` jumps a run of such
steps with one slice whenever no other term can lie on it; a product
walks one trie of the right factor's paths per left term.  So one term
of length L costs O(L), where slicing and hashing a key per edge or per
prefix would cost Theta(L^2).

Grading: p q* sits in degree len(p) - len(q).  A degree holds finitely
many admissible monomials in the no-exit case, and one table counts and
lists them: N_v(l), the number of paths of length l ending at v.  The
pairs of degree d with range v number sum_l N_v(l) N_v(l - d), and the
inadmissible ones, (p g)(q g)* for the distinguished edge g at a
non-sink u, number the same sum for u with the length cap one shorter;
``graded_dim`` adds these up and enumerates nothing.  ``basis_monomials``
reads the same counts to skip every class of p with no partner, so it
builds only the paths of the basis.
"""

from __future__ import annotations

from collections import Counter
from operator import mul
from typing import NamedTuple

from .graph import (
    Graph,
    GraphError,
    InfiniteEnumerationError,
    Path,
    check_ids,
    concat,
    is_prefix,
    no_exit_condition,
    strip_prefix,
)
from .scalar import Rationals


def special_edges(g: Graph) -> dict:
    """The distinguished outgoing edge (smallest id) at each non-sink vertex."""
    return {v: g.out_edges(v)[0].id for v in g.vertices if not g.is_sink(v)}


class Monomial(NamedTuple):
    """A path pair p q* with r(p) == r(q); the multiplicative skeleton.

    Vertices are the monomials with both paths empty, real paths have q
    empty, ghost paths have p empty.
    """

    p: Path
    q: Path

    @property
    def degree(self) -> int:
        return len(self.p.edges) - len(self.q.edges)

    def sort_key(self):
        return (self.p.sort_key(), self.q.sort_key())

    def star(self) -> "Monomial":
        return Monomial(self.q, self.p)

    def to_json(self, coeff_str: str) -> dict:
        return {
            "p": list(self.p.edges),
            "p_base": self.p.base,
            "q": list(self.q.edges),
            "q_base": self.q.base,
            "coeff": coeff_str,
        }


class LeavittAlgebra:
    """L_K(E) for a finite graph E and an exact field K.

    Carries the graph, the coefficient field and the distinguished-edge
    choice driving normal forms.  Elements are `LpaElement`s; build them
    with `vertex`, `edge`, `ghost`, `identity`, `monomial_element` or
    `element`.
    """

    def __init__(self, graph: Graph, field=None):
        self.graph = graph
        self.field = field if field is not None else Rationals()
        self.special = frozenset(special_edges(graph).values())
        # distinguished edge g -> (its source, the other outgoing edges
        # there as (id, range), in out-edge order), filled by
        # `_sibling_entry` for the edges `_reduce` rewrites or walks
        self._siblings: dict = {}
        self._basis_cache: dict = {}
        # (edge id, length) -> the paths of that length ending in that edge
        self._ending_cache: dict = {}
        # (v -> N_v series, v -> in-edges as (source, id, its series), the
        # sink series, the non-sink series, the counts of the last length or
        # None once a length has no path), built and grown by `_path_counts`
        self._series = None

    # -- element construction -------------------------------------------

    def zero(self) -> "LpaElement":
        return LpaElement(self, {})

    def vertex(self, v: str) -> "LpaElement":
        p = self.graph.empty_path(v)
        return LpaElement(self, {Monomial(p, p): self.field.one()})

    def edge(self, eid: str) -> "LpaElement":
        e = self.graph.edge(eid)
        p = self.graph.path(e.src, (eid,))
        return LpaElement(self, {Monomial(p, self.graph.empty_path(e.dst)): self.field.one()})

    def ghost(self, eid: str) -> "LpaElement":
        return self.edge(eid).star()

    def identity(self) -> "LpaElement":
        """Sum of all vertex idempotents; the unit, the vertex set being finite."""
        terms = {}
        for v in self.graph.vertices:
            p = self.graph.empty_path(v)
            terms[Monomial(p, p)] = self.field.one()
        return LpaElement(self, terms)

    def monomial_element(self, p: Path, q: Path, coeff=None) -> "LpaElement":
        if p.end != q.end:
            raise GraphError(f"path ranges differ: {p.end} != {q.end}")
        c = coeff if coeff is not None else self.field.one()
        return self.normal_form({Monomial(p, q): c})

    def element(self, terms) -> "LpaElement":
        """Canonical element from an iterable of (Monomial, coeff) pairs."""
        field = self.field
        zero = field.zero()
        raw: dict = {}
        for m, c in terms:
            if m.p.end != m.q.end:
                raise GraphError(f"path ranges differ: {m.p.end} != {m.q.end}")
            raw[m] = field.add(raw.get(m, zero), c)
        return self.normal_form(raw)

    # -- the rewriting system ---------------------------------------------

    def is_admissible(self, m: Monomial) -> bool:
        """Monomials surviving reduction: p, q may not both end in the
        distinguished edge of the shared source."""
        if not m.p.edges or not m.q.edges:
            return True
        last_p = m.p.edges[-1]
        return last_p != m.q.edges[-1] or last_p not in self.special

    def _reduce(self, raw: dict):
        """Rewrite until every surviving monomial is admissible.

        One step replaces (p g)(q g)* for distinguished g at v by p q*
        minus (p e)(q e)* over the other edges at v; the total path
        length of the worst monomial strictly drops, so this terminates.
        Returns (terms, steps).

        Each step rewrites the non-admissible monomial of largest
        `Monomial.sort_key`, whose first component is len(p).  A step at
        len(p) = l leaves only p q* at level l - 1 possibly
        non-admissible: the (p e)(q e)* end in a non-distinguished edge.
        So the non-admissible monomials wait in one bucket per level,
        drained from the top, and each bucket is sorted once when it is
        reached; the cost is the rewrite steps times the out-degree plus
        one sort per occupied level, not one sort of all terms per step.

        The rewriting runs on flat keys (len p, p.edges, p.base, len q,
        q.edges, q.base, end): plain tuples, hashed and compared in C,
        whose natural order is `Monomial.sort_key` order.  A `Monomial`
        is built only for each surviving key that did not come from
        `raw`; one that did keeps its input object.

        A step whose g is the only edge out of v puts p q* alone.  When
        the n >= 2 last edges that p and q share are all such edges (a
        sibling-free run), the n - 1 steps down to the last key of the run
        are jumped with one slice: that key is queued at its level, n - 1
        steps are counted, and its own step runs in its turn, so terms,
        dict order and step count are those of one step per edge.  The
        jump is safe when no other term can meet a skipped key.  Every key
        of the run has the start's (p.base, q.base, len p - len q), and
        only a non-admissible input key of that signature can reach one,
        so the run jumps when its signature has one such input key; the
        signatures are counted once per call, at its first run of two or
        more edges.  A call with no such run does no extra work.
        """
        field = self.field
        add, neg, is_zero = field.add, field.neg, field.is_zero
        special, siblings = self.special, self._siblings
        terms: dict = {}
        given: dict = {}
        levels: dict = {}
        for m, c in raw.items():
            if is_zero(c):
                continue
            p, q = m.p, m.q
            pe, qe = p.edges, q.edges
            k = (len(pe), pe, p.base, len(qe), qe, q.base, p.end)
            terms[k] = c
            given[k] = m
            if pe and qe and pe[-1] == qe[-1] and pe[-1] in special:
                levels.setdefault(len(pe), set()).add(k)
        # put runs only when there is a step to make
        zero = field.zero() if levels else None

        def put(k, c):
            acc = add(terms.get(k, zero), c)
            if is_zero(acc):
                terms.pop(k, None)
            else:
                terms[k] = acc

        steps = 0
        # (p.base, q.base, len p - len q) -> how many non-admissible input
        # keys have that signature, counted at the first run that could jump
        runs = None
        while levels:
            # a step queues keys only below the level it drains, so the
            # top bucket is final; a monomial cancelled after it was
            # queued stays in its bucket
            level = max(levels)
            for bad in sorted(levels.pop(level), reverse=True):
                c = terms.pop(bad, None)
                if c is None:
                    continue
                lp, pe, pb, lq, qe, qb, _ = bad
                g = pe[-1]
                v, others = siblings.get(g) or self._sibling_entry(g)
                if not others:
                    # n trailing edges shared by p and q, each distinguished
                    # and the only edge out of its source
                    n = 1
                    while n < lp and n < lq:
                        e = pe[-1 - n]
                        if e != qe[-1 - n] or e not in special:
                            break
                        if (siblings.get(e) or self._sibling_entry(e))[1]:
                            break
                        n += 1
                    if n > 1:
                        if runs is None:
                            runs = Counter(
                                (k[2], k[5], k[0] - k[3]) for k in given
                                if k[1] and k[4] and k[1][-1] == k[4][-1] and k[1][-1] in special
                            )
                        # only the input keys of this signature can lie on
                        # the run; if this is the only one, no other term
                        # meets the n - 1 keys skipped here
                        if runs[pb, qb, lp - lq] == 1:
                            lp, lq = lp - n + 1, lq - n + 1
                            k = (lp, pe[:lp], pb, lq, qe[:lq], qb, siblings[pe[lp]][0])
                            terms[k] = c
                            levels.setdefault(lp, set()).add(k)
                            steps += n - 1
                            continue
                pe, qe = pe[:-1], qe[:-1]
                k0 = (lp - 1, pe, pb, lq - 1, qe, qb, v)
                put(k0, c)
                if pe and qe and pe[-1] == qe[-1] and pe[-1] in special:
                    levels.setdefault(level - 1, set()).add(k0)
                for eid, dst in others:
                    put((lp, pe + (eid,), pb, lq, qe + (eid,), qb, dst), neg(c))
                steps += 1
        out = {}
        for k, c in terms.items():
            m = given.get(k)
            if m is None:
                _, pe, pb, _, qe, qb, end = k
                m = Monomial(Path(pb, pe, end), Path(qb, qe, end))
            out[m] = c
        return out, steps

    def _sibling_entry(self, g: str):
        """(source of g, the other edges out of it as (id, range) in
        out-edge order), stored in `_siblings` for `_reduce`."""
        v = self.graph.edge(g).src
        others = tuple((e.id, e.dst) for e in self.graph.out_edges(v) if e.id != g)
        at = self._siblings[g] = (v, others)
        return at

    def normal_form(self, raw: dict) -> "LpaElement":
        """Canonical element from a raw monomial -> coefficient map."""
        terms, _ = self._reduce(raw)
        return LpaElement(self, terms)

    def normal_form_stats(self, raw: dict):
        """(canonical element, rewrite step count); for confluence probing."""
        terms, steps = self._reduce(raw)
        return LpaElement(self, terms), steps

    # -- graded dimension ---------------------------------------------------

    def basis_monomials(self, degree: int, length_bound=None):
        """The admissible monomials of one degree, sorted.

        Unbounded mode needs the no-exit condition; the search radius
        2 * (number of vertices) + |degree| then provably captures every
        admissible pair.  With `length_bound`, both paths are capped at
        that length instead (truncated count).

        The pairs come from the series N_v(l) of `graded_dim`: the class
        of p by length lp, range v and last edge e (None for the empty p)
        has as partners the N_v(lq) paths of length lq = lp - degree into
        v, less the N_{s(e)}(lq - 1) ending in e when e is distinguished,
        and builds no path when it has no p or no partner.  Each length's
        pairs are then sorted by `Monomial.sort_key`.
        """
        cap = self._cap(degree, length_bound)
        if (degree, cap) in self._basis_cache:
            return self._basis_cache[(degree, cap)]
        _, _, lengths = self._path_counts(cap)
        series, special, graph = self._series[0], self.special, self.graph
        ending = self._paths_ending
        out = []
        for lp in range(max(0, degree), min(cap, lengths - 1) + min(0, degree) + 1):
            lq = lp - degree
            level = []
            for v, n in series.items():
                if not (n[lp] and n[lq]):
                    continue
                for e in graph.in_edges(v) if lp else (None,):
                    skip = e.id if lq and e and e.id in special else None
                    if skip and n[lq] == series[e.src][lq - 1]:
                        continue
                    ps = ending(e, lp) if e else [graph.empty_path(v)]
                    if ps:
                        ins = [f for f in graph.in_edges(v) if f.id != skip]
                        qs = [q for f in ins for q in ending(f, lq)] if lq else [graph.empty_path(v)]
                        level += [Monomial(p, q) for p in ps for q in qs]
            level.sort(key=Monomial.sort_key)
            out += level
        return self._basis_cache.setdefault((degree, cap), tuple(out))

    def _paths_ending(self, e, length: int) -> list:
        """`_paths_ending_in`, memoised per algebra on (edge id, length):
        the degrees that `basis_monomials` lists share their long paths."""
        key = e.id, length
        paths = self._ending_cache.get(key)
        if paths is None:
            paths = self._ending_cache[key] = self._paths_ending_in(e, length)
        return paths

    def _paths_ending_in(self, e, length: int) -> list:
        """The paths of `length` >= 1 edges with last edge e, grown at the
        front one edge at a time.  Past s(e) the walk enters a front vertex
        u with r edges still to add only when N_u(r) > 0, so every path it
        extends is completed."""
        into = self._series[1]
        level = [(e.src, (e.id,))]
        for r in range(length - 2, -1, -1):
            level = [(s, (f,) + edges) for u, edges in level for s, f, n in into[u] if n[r]]
        return [Path(base, edges, e.dst) for base, edges in level]

    def _cap(self, degree: int, length_bound) -> int:
        """The path length cap of one degree: 2 * (number of vertices) +
        |degree| in unbounded mode, which needs the no-exit condition;
        `length_bound` otherwise."""
        if length_bound is not None:
            return length_bound
        if not no_exit_condition(self.graph):
            raise InfiniteEnumerationError(
                "graded components are infinite-dimensional when a cycle has an exit; "
                "pass length_bound for a truncated count"
            )
        return 2 * len(self.graph.vertices) + abs(degree)

    def graded_dim(self, degree: int, length_bound=None) -> int:
        """The number of admissible monomials of one degree, with the same
        modes and cap as `basis_monomials`, counted without listing them.

        With N_v(l) the number of paths of length l ending at v, the pairs
        p q* of degree d with both lengths in [0, cap] and range v number
        S_v(cap) = sum_l N_v(l) N_v(l - d) over l in [lo, hi] = [max(0, d),
        min(cap, cap + d)].  The inadmissible ones are (p g)(q g)* for the
        distinguished edge g at each non-sink u, with p, q ending at u:
        S_u(cap - 1) of them.  S_u(cap) - S_u(cap - 1) is the single term
        N_u(hi) N_u(hi - d), so the dimension is the sum of S_v(cap) over
        the sinks v plus the sum of N_u(hi) N_u(hi - d) over the non-sinks
        u: one dot product of two slices of the cached series per sink and
        one product per non-sink.
        """
        cap = self._cap(degree, length_bound)
        lo, hi = max(0, degree), min(cap, cap + degree)
        if hi < lo:
            return 0
        sinks, nonsinks, lengths = self._path_counts(cap)
        dim = sum(sum(map(mul, a[lo:hi + 1], a[lo - degree:hi + 1 - degree])) for a in sinks)
        if max(hi, hi - degree) < lengths:
            dim += sum(a[hi] * a[hi - degree] for a in nonsinks)
        return dim

    def _path_counts(self, cap: int):
        """The series N_v(l) of the sinks and of the non-sinks, one list
        per vertex, and their common length, which covers every l <= cap
        that has a path (a missing l has N_v(l) = 0 for every v).

        One pass per length adds the counts of each edge's source into its
        range, Theta(|E|) per length.  The series are grown to the largest
        cap asked and stop at the first length with no path, so on an
        acyclic graph they cost its longest path, not the cap.
        """
        graph = self.graph
        if self._series is None:
            vs = graph.vertices
            series = {v: [1] for v in vs}
            into = {v: tuple((e.src, e.id, series[e.src]) for e in graph.in_edges(v)) for v in vs}
            sinks = [series[v] for v in vs if graph.is_sink(v)]
            nonsinks = [series[v] for v in vs if not graph.is_sink(v)]
            self._series = (series, into, sinks, nonsinks, [1] * len(series))
        series, into, sinks, nonsinks, front = self._series
        lengths = len(series[graph.vertices[0]])
        if front is not None and lengths <= cap:
            index = {v: i for i, v in enumerate(graph.vertices)}
            arcs = [(index[e.src], index[e.dst]) for e in graph.edges]
            while lengths <= cap:
                nxt = [0] * len(front)
                for s, d in arcs:
                    nxt[d] += front[s]
                if not any(nxt):
                    front = None
                    break
                for a, c in zip(series.values(), nxt):
                    a.append(c)
                front = nxt
                lengths += 1
            self._series = (series, into, sinks, nonsinks, front)
        return sinks, nonsinks, lengths

    # -- io -------------------------------------------------------------------

    def element_from_json(self, data) -> "LpaElement":
        if not isinstance(data, list):
            raise GraphError("element serialization must be an array of terms")
        pairs = []
        for rec in data:
            try:
                if not (isinstance(rec["p"], list) and isinstance(rec["q"], list)):
                    raise GraphError("element paths 'p' and 'q' must be arrays")
                check_ids((rec["p_base"], rec["q_base"]), rec["p"], rec["q"])
                p = self.graph.path(str(rec["p_base"]), tuple(map(str, rec["p"])))
                q = self.graph.path(str(rec["q_base"]), tuple(map(str, rec["q"])))
                coeff = rec["coeff"]
            except (KeyError, TypeError) as exc:
                raise GraphError(f"malformed element term: {exc}") from None
            try:
                c = self.field.parse(coeff)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise GraphError(f"malformed coefficient {coeff!r}: {exc}") from None
            pairs.append((Monomial(p, q), c))
        return self.element(pairs)

    def __eq__(self, other):
        return (
            isinstance(other, LeavittAlgebra)
            and other.graph == self.graph
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.graph, self.field))

    def __repr__(self):
        return f"LeavittAlgebra({self.graph!r}, {self.field!r})"


class LpaElement:
    """A canonical-form element: an admissible monomial -> coefficient map."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LeavittAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    # -- ring structure -----------------------------------------------------

    def _check_same(self, other: "LpaElement"):
        if not isinstance(other, LpaElement):
            raise TypeError(f"cannot combine LpaElement with {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._check_same(other)
        field = self.algebra.field
        zero = field.zero()
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(acc.get(m, zero), c)
            if field.is_zero(s):
                acc.pop(m, None)
            else:
                acc[m] = s
        return LpaElement(self.algebra, acc)

    def __neg__(self):
        field = self.algebra.field
        return LpaElement(self.algebra, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product, reduced to canonical form.

        (p1 q1*)(p2 q2*) survives only when one of q1, p2 is a prefix of
        the other.  The p-paths of the right factor go into one trie per
        base, keyed by edge id, so each left monomial walks its q1 down
        once: the p2 that are prefixes of q1 end on the walk, and those
        that q1 is a prefix of lie below where it ends.  That is len(q1)
        lookups plus the nodes below, and building the trie costs the
        total length of the p2, so no prefix is sliced or hashed.  Partners
        are visited in the right factor's order, which builds the raw sum
        in the order of the all-pairs loop; it then passes through the
        rewriting system once.
        """
        self._check_same(other)
        field = self.algebra.field
        zero = field.zero()
        right = list(other.terms.items())
        # base -> trie of the right p-paths: a node maps an edge id to its
        # child, and None to the indices j of the paths ending there
        tries: dict = {}
        for j, (m2, _) in enumerate(right):
            node = tries.get(m2.p.base)
            if node is None:
                node = tries[m2.p.base] = {}
            for e in m2.p.edges:
                child = node.get(e)
                if child is None:
                    child = node[e] = {}
                node = child
            node.setdefault(None, []).append(j)
        raw: dict = {}
        for m1, c1 in self.terms.items():
            node = tries.get(m1.q.base)
            if node is None:
                continue
            # the p-paths that are prefixes of q1 lie on its walk down ...
            hits = []
            for e in m1.q.edges:
                if None in node:
                    hits += node[None]
                node = node.get(e)
                if node is None:
                    break
            else:
                # ... and those that q1 is a prefix of, below where it ends
                stack = [node]
                while stack:
                    for e, child in stack.pop().items():
                        if e is None:
                            hits += child
                        else:
                            stack.append(child)
            for j in sorted(hits):
                m2, c2 = right[j]
                m = _monomial_product(m1, m2)
                c = field.mul(c1, c2)
                raw[m] = field.add(raw.get(m, zero), c)
        return self.algebra.normal_form(raw)

    def star(self) -> "LpaElement":
        """The involution (c p q*)* = c q p*; admissibility is symmetric in p, q."""
        return LpaElement(self.algebra, {m.star(): c for m, c in self.terms.items()})

    # -- grading ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Degree of a nonzero homogeneous element; None for zero (which
        sits in every component) and for inhomogeneous elements."""
        degs = {m.degree for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({m.degree for m in self.terms}) <= 1

    def component(self, degree: int) -> "LpaElement":
        return LpaElement(
            self.algebra, {m: c for m, c in self.terms.items() if m.degree == degree}
        )

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LpaElement)
            and other.algebra == self.algebra
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_json(self) -> list:
        field = self.algebra.field
        out = []
        for m in sorted(self.terms, key=Monomial.sort_key):
            out.append(m.to_json(field.format(self.terms[m])))
        return out

    def __repr__(self):
        if not self.terms:
            return "<0>"
        field = self.algebra.field
        bits = []
        for m in sorted(self.terms, key=Monomial.sort_key):
            c = field.format(self.terms[m])
            p = ".".join(m.p.edges) if m.p.edges else m.p.base
            q = ".".join(m.q.edges) if m.q.edges else ""
            bits.append(f"{c}*{p}" + (f".({q})*" if q else ""))
        return "<" + " + ".join(bits) + ">"


def _monomial_product(m1: Monomial, m2: Monomial):
    """(p1 q1*)(p2 q2*) as a single raw monomial, or None when it dies.

    The ghost relations contract q1* p2 to a single path (or kill the
    product) depending on which of q1, p2 is a prefix of the other.
    """
    q1, p2 = m1.q, m2.p
    if is_prefix(q1, p2):
        return Monomial(concat(m1.p, strip_prefix(q1, p2)), m2.q)
    if is_prefix(p2, q1):
        return Monomial(m1.p, concat(m2.q, strip_prefix(p2, q1)))
    return None
