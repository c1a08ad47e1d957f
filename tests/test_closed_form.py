"""The closed-form image map against the dense route it replaced.

The oracle below builds every edge image as a sum of matrix units (one
per index path q_k with s(q_k) = r(e), located by factoring e q_k
through the cycle), multiplies the edge images along p, multiplies by
the star of the same product along q, and scales by the coefficient.
`GeneratorImages.apply` computes the same thing without a matrix
product; the two must agree on single monomials, sums and products, on
the corpus and on seeded random graphs made of trees feeding disjoint
cycles, over Q and over F_7.
"""

import random

import pytest

from corpus import build_corpus
from leavitt import (
    Graph,
    LeavittAlgebra,
    PrimeField,
    Rationals,
    decompose,
    no_exit_condition,
    phi,
    sample_homogeneous,
)
from leavitt.graph import concat, factor_through_cycle

FIELDS = [Rationals(), PrimeField(7)]


def oracle_generators(report):
    """Vertex and edge images as sums of dense matrix units."""
    g = report.graph
    one = report.algebra.field.one()
    vertices = {v: [] for v in g.vertices}
    edges = {e.id: [] for e in g.edges}
    for block in report.blocks:
        M = block.algebra
        lookup = {q: k for k, q in enumerate(block.index_paths)}
        for v in g.vertices:
            acc = M.zero()
            for k, q in enumerate(block.index_paths):
                if q.base == v:
                    acc = acc + M.unit(k, k, M.base.one())
            vertices[v].append(acc)
        for e in g.edges:
            acc = M.zero()
            for k, q in enumerate(block.index_paths):
                if q.base != e.dst:
                    continue
                path, w = concat(g.path(e.src, (e.id,)), q), 0
                if block.cycle is not None:
                    path, w = factor_through_cycle(g, block.cycle, path)
                x = M.base.one() if block.cycle is None else M.base.monomial(one, w * block.cycle.length)
                acc = acc + M.unit(lookup[path], k, x)
            edges[e.id].append(acc)
    return (
        {v: tuple(m) for v, m in vertices.items()},
        {e: tuple(m) for e, m in edges.items()},
    )


def oracle_apply(report, generators, x):
    vertices, edges = generators

    def path_image(p):
        if p.is_empty:
            return vertices[p.base]
        acc = edges[p.edges[0]]
        for eid in p.edges[1:]:
            acc = tuple(a * b for a, b in zip(acc, edges[eid]))
        return acc

    out = [b.algebra.zero() for b in report.blocks]
    for m, c in x.terms.items():
        left, right = path_image(m.p), path_image(m.q)
        for k, block in enumerate(report.blocks):
            prod = left[k] * right[k].star()
            out[k] = out[k] + prod.scale(block.algebra.base.monomial(c, 0))
    return tuple(out)


def random_no_exit_graph(rng):
    """Disjoint cycles (length 1-3) and sinks, fed by tree vertices with
    one or two out-edges each; only tree vertices branch, so no cycle
    has an exit."""
    vertices, edges = [], []
    for ci in range(rng.randint(0, 2)):
        t = rng.randint(1, 3)
        cyc = [f"c{ci}_{i}" for i in range(t)]
        vertices += cyc
        edges += [(f"k{ci}_{i}", cyc[i], cyc[(i + 1) % t]) for i in range(t)]
    for si in range(rng.randint(0 if vertices else 1, 2)):
        vertices.append(f"s{si}")
    for ti in range(rng.randint(1, 4)):
        v = f"t{ti}"
        for j in range(rng.randint(1, 2)):
            edges.append((f"e{ti}_{j}", v, rng.choice(vertices)))
        vertices.append(v)
    return Graph(vertices, edges)


def graphs():
    out = dict(build_corpus())
    rng = random.Random(2024)
    for r in range(12):
        out[f"random{r}"] = random_no_exit_graph(rng)
    return out


GRAPHS = graphs()


def test_random_graphs_have_no_exit():
    for name, g in GRAPHS.items():
        assert no_exit_condition(g), name


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_apply_matches_dense_route(name, field):
    rep = decompose(LeavittAlgebra(GRAPHS[name], field))
    A = rep.algebra
    images = phi(rep)
    gens = oracle_generators(rep)
    assert images.vertices == gens[0], name
    assert images.edges == gens[1], name
    assert images.ghosts == {e: tuple(m.star() for m in ms) for e, ms in gens[1].items()}

    rng = random.Random(f"{name} {field!r}")
    # single monomials, with a nonzero coefficient
    for d in range(-2, 3):
        for mono in A.basis_monomials(d):
            x = A.element([(mono, A.field.from_int(rng.randint(1, 6)))])
            assert images.apply(x) == oracle_apply(rep, gens, x), (name, mono)
    # sums, mixing degrees, and products of pairs
    for _ in range(6):
        x, y = sample_homogeneous(A, rng), sample_homogeneous(A, rng)
        for z in (x + y, x - y, x * y, y * x, x * x.star()):
            assert images.apply(z) == oracle_apply(rep, gens, z), name
        xy = tuple(a * b for a, b in zip(images.apply(x), images.apply(y)))
        assert images.apply(x * y) == xy, name


def test_apply_ignores_edited_generator_images():
    """`apply` reads the report, not the image dicts, so editing an image
    (what `verify-iso --corrupt` does) leaves it unchanged."""
    rep = decompose(LeavittAlgebra(build_corpus()["fedcycle"]))
    images = phi(rep)
    x = rep.algebra.edge("h1") * rep.algebra.edge("h2")
    before = images.apply(x)
    images.edges["h1"] = images.zero()
    assert images.apply(x) == before
