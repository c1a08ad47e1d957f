"""Command line front end.

Every command reads a graph from --input (JSON: {"vertices": [...],
"edges": [{"id", "src", "dst"}, ...]}) and writes a report to stdout,
JSON by default, aligned text with --format text.  Every JSON report is
the text of ``json.dumps(report, indent=2, sort_keys=True)``; `decompose`
writes its own, piece by piece, since its index paths hold Θ(n²) edge
ids in a block of size n, and the others go through `_json_text`.  Every
command computes its whole report before it writes the first byte.

Exit codes: 0 success; 1 malformed input (nothing on stdout), which
includes an --input or --element file that cannot be read or is not
UTF-8, a graph with no vertices, a vertex or edge id, in the graph or
in an element, that is neither a string nor an integer (an integer id
is read as its decimal text), JSON nested too deeply to decode, an
element path ``p`` or ``q`` that is not an array, an element
coefficient the field cannot parse, a JSON integer longer than Python
converts from text (4300 digits by default), a coefficient over Q whose
numerator or denominator would be longer than that ("1e5000",
"1e-5000") and an inhomogeneous --element to regular-witness; 2 the
graph has a cycle with an exit where the command needs the no-exit
condition, or a usage error reported by argparse (an unknown option,
--field fp:4, a negative --bound or --samples); 3 an internal
verification replay failed; 4 any other internal error (one
``error: internal: ...`` line on stderr, nothing on stdout); 141
(128 + SIGPIPE) the reader closed stdout, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

from .graph import Graph, GraphError, InfiniteEnumerationError
from .lpa import LeavittAlgebra
from .regularity import (
    NotRegularError,
    idempotent_report,
    regularity_witness_report,
    sample_homogeneous,
    type_I_witness,
)
from .scalar import PrimeField, Rationals
from .structure import (
    DecompositionReport,
    ExitConditionError,
    VerificationError,
    classify,
    decompose,
    dim_series_check,
    phi,
    verify_phi,
)


def _field_arg(text: str):
    if text == "q":
        return Rationals()
    if text.startswith("fp:"):
        try:
            return PrimeField(int(text[3:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError("field must be 'q' or 'fp:P' for a prime P")


def _count_arg(text: str) -> int:
    """A non-negative integer option; a non-integer gets argparse's own
    `invalid int value` message."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {n}")
    return n


def _read_json(path: str):
    """The JSON value in the file; failing to read or decode it is malformed
    input.  `ValueError` covers bad UTF-8, bad JSON and an integer longer
    than Python converts from text (4300 digits by default)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise GraphError(str(exc)) from None
    except RecursionError:
        raise GraphError("JSON nested too deeply") from None


def _load_graph(args) -> Graph:
    return Graph.from_json_dict(_read_json(args.input))


def _load_report(args) -> DecompositionReport:
    return decompose(LeavittAlgebra(_load_graph(args), args.field))


def _load_element(algebra: LeavittAlgebra, path: str):
    return algebra.element_from_json(_read_json(path))


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_encoder(depth):
    """The C encoder for a dict or list at `depth` whose values are all
    scalars: it joins the items with the newline and indent of depth + 1,
    and the caller moves the brackets onto lines of their own."""
    sep = ",\n" + "  " * (depth + 1)
    return json.JSONEncoder(separators=(sep, ": "), sort_keys=True).encode


# the C encoder for a list of flat dicts: a newline between items and
# between the keys of one item, no indentation
_encode_dict_list = json.JSONEncoder(separators=("\n", ": "), sort_keys=True).encode


def _flat_dicts(dicts) -> bool:
    """Are these dicts all non-empty, with str keys and scalar values?
    (The value test, which most other lists of dicts fail, comes first.)"""
    return (
        set(map(type, chain.from_iterable(map(dict.values, dicts)))) <= _SCALAR_TYPES
        and set(map(type, chain.from_iterable(dicts))) == {str}
        and all(dicts)
    )


def _dict_list_text(items, indent):
    r"""The indented text of a non-empty list of flat dicts, from one
    C-encoder call; `indent` is the newline and indentation of the line
    the list opens on.  Encoded strings are ASCII-escaped, so they hold
    no raw newline: in the encoder's text, "}\n{" is a boundary between
    items and every other newline separates two keys of one item."""
    item = indent + "  "
    key = item + "  "
    body = _encode_dict_list(items)[2:-2]
    body = body.replace("\n", "," + key).replace("}," + key + "{", item + "}," + item + "{" + key)
    return "[" + item + "{" + key + body + item + "}" + indent + "]"


def _json_text(obj):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    The stdlib's indented encoding is pure Python.  Here containers are
    walked in Python, every dict or list of scalars is one C-encoder call,
    and so is every list of flat dicts (str keys, scalar values), such as
    the checks of ``verify-iso``; the pieces are joined once at the end.
    """
    chunks = []
    _encode_into(chunks, obj, 0)
    return "".join(chunks)


def _encode_into(chunks, obj, depth):
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        chunks.append(_flat_encoder(depth)(obj))
        return
    if not obj:
        chunks.append("{}" if is_dict else "[]")
        return
    indent = "\n" + "  " * depth
    inner = indent + "  "
    kinds = set(map(type, obj.values() if is_dict else obj))
    if kinds <= _SCALAR_TYPES:
        text = _flat_encoder(depth)(obj)
        chunks += (text[0], inner, text[1:-1], indent, text[-1])
        return
    if not is_dict:
        if kinds == {dict} and _flat_dicts(obj):
            chunks.append(_dict_list_text(obj, indent))
            return
        chunks.append("[")
        for v in obj:
            chunks.append(inner)
            _encode_into(chunks, v, depth + 1)
            chunks.append(",")
        chunks[-1] = indent + "]"
        return
    if not set(map(type, obj)) <= {str}:
        # non-str keys: the stdlib's own text, re-indented; encoded JSON
        # holds no literal newline, so every newline is a line break
        text = json.dumps(obj, indent=2, sort_keys=True)
        chunks.append(text.replace("\n", indent))
        return
    chunks.append("{")
    for k in sorted(obj):
        chunks += (inner, encode_basestring_ascii(k), ": ")
        _encode_into(chunks, obj[k], depth + 1)
        chunks.append(",")
    chunks[-1] = indent + "}"


def _emit(args, obj, text_lines, write_json=None):
    """Print `obj` as indented JSON, or the text lines with --format text;
    a command that writes its own JSON passes its writer as `write_json`."""
    if args.format == "text":
        for line in text_lines:
            print(line)
    elif write_json is None:
        print(_json_text(obj))
    else:
        write_json(obj)


def _write_object(write, fields, streamed, depth):
    """Write a dict at `depth` as ``json.dumps(indent=2, sort_keys=True)``
    lays it out: each value of `fields` whole, through `_json_text` and
    re-indented (encoded JSON holds no literal newline, so every newline is
    a line break), and each key of `streamed` by its writer, called with
    the depth of the value."""
    indent = "\n" + "  " * depth
    inner = indent + "  "
    opener = "{"
    for key in sorted(fields.keys() | streamed.keys()):
        write(opener + inner + encode_basestring_ascii(key) + ": ")
        if key in streamed:
            streamed[key](depth + 1)
        else:
            write(_json_text(fields[key]).replace("\n", inner))
        opener = ","
    write(indent + "}")


def _write_paths(write, block, encode, depth):
    """Write a block's index paths, a list at `depth`, one path a call.

    The block keeps its index paths as a tree, level by level: path k is
    the edge `first[k]` followed by path `parent[k]`, one level up.  So
    the text of its edge list is its first edge id, the separator and the
    text of its parent's: each id is encoded once, by the caching
    `encode`, and only the texts of the previous level are kept.
    """
    item = "\n" + "  " * (depth + 1)
    key = item + "  "
    sep = "," + key + "  "
    head = f'{item}{{{key}"base": '
    write(f'[{head}{encode(block.anchor)},{key}"edges": []{item}}}')
    prev, cur, length = {}, {}, 1
    tree = enumerate(zip(block.bases, block.first, block.parent, block.shifts))
    for k, (base, first, up, shift) in islice(tree, 1, None):
        if shift != length:
            prev, cur, length = cur, {}, shift
        body = cur[k] = encode(first) + sep + prev[up] if up else encode(first)
        write(f',{head}{encode(base)},{key}"edges": [{sep[1:]}{body}{key}]{item}}}')
    write(item[:-2] + "]")


def _write_decomposition(report):
    """Write ``json.dumps(report.to_json(), indent=2, sort_keys=True)`` and
    a newline to stdout, piece by piece, without building the JSON value;
    the index paths hold Θ(n²) edge ids in a block of size n, and the
    Python work here is linear in paths plus edges."""
    write = sys.stdout.write
    encode = functools.cache(encode_basestring_ascii)

    def write_blocks(depth):
        item = "\n" + "  " * (depth + 1)
        opener = "["
        for block in report.blocks:
            write(opener + item)
            write_paths = functools.partial(_write_paths, write, block, encode)
            _write_object(write, block.fields_json(), {"paths": write_paths}, depth + 1)
            opener = ","
        write(item[:-2] + "]")

    _write_object(write, report.fields_json(), {"blocks": write_blocks}, 0)
    write("\n")


# -- commands ----------------------------------------------------------------


def cmd_classify(args) -> int:
    g = _load_graph(args)
    report = classify(g)
    data = report.to_json()
    lines = [f"{k}: {data[k]}" for k in (
        "no_exit",
        "graded_self_injective",
        "graded_regular",
        "graded_sigma_v",
        "graded_type_one",
        "block_count",
        "graded_prime",
    )]
    lines.append(f"central_triple: {data['central_triple']}")
    lines.append(data["note"])
    _emit(args, data, lines)
    return 0


def _block_lines(report):
    lines = []
    for k, b in enumerate(report.blocks):
        if b.kind == "sink":
            head = f"block {k}: sink {b.anchor}"
        else:
            head = f"block {k}: cycle at {b.anchor} (length {b.cycle.length})"
        lines.append(f"{head}, size {b.n}, shifts {list(b.shifts)}")
    return lines


def cmd_decompose(args) -> int:
    report = _load_report(args)
    _emit(args, report, _block_lines(report), _write_decomposition)
    return 0


def cmd_dims(args) -> int:
    report = _load_report(args)
    series = dim_series_check(report, args.bound)
    lines = [
        f"n={n:+d}  algebra={a}  blocks={b}  {'ok' if a == b else 'MISMATCH'}"
        for n, a, b in series.rows
    ]
    lines.append("all equal" if series.all_equal else "MISMATCH FOUND")
    _emit(args, series.to_json(), lines)
    return 0 if series.all_equal else 3


def _corrupt(images):
    """Break one generator image deliberately, for exercising the failure
    path: add a degree-0 vertex image to the first edge image (always
    detectable: the edge image stops being homogeneous of degree 1), or
    zero out the first vertex image on an edgeless graph."""
    g = images.report.graph
    if g.edges:
        eid = g.edges[0].id
        src = g.edges[0].src
        images.edges[eid] = tuple(
            m + vm for m, vm in zip(images.edges[eid], images.vertices[src])
        )
    else:
        v = g.vertices[0]
        images.vertices[v] = images.zero()


def cmd_verify_iso(args) -> int:
    report = _load_report(args)
    images = phi(report)
    if args.corrupt:
        _corrupt(images)
    result = verify_phi(images)
    data = result.to_json()
    lines = [f"checks: {data['total']}, failed: {data['failed']}"]
    for c in result.failures():
        lines.append(f"FAIL {c.relation} at {c.instance}")
    _emit(args, data, lines)
    return 0 if result.all_passed else 3


def cmd_regular_witness(args) -> int:
    report = _load_report(args)
    images = phi(report)
    rng = random.Random(args.seed)
    witnesses = []
    if args.element:
        a = _load_element(report.algebra, args.element)
        if not a.is_homogeneous():
            raise GraphError(
                "the element is not homogeneous; graded inner inverses need one degree"
            )
        elements = [a]
    else:
        elements = [sample_homogeneous(report.algebra, rng) for _ in range(args.samples)]
    for a in elements:
        witnesses.append(regularity_witness_report(images, a))
    data = {"seed": args.seed, "witnesses": witnesses}
    lines = []
    for w in witnesses:
        lines.append(
            f"degree {w['degree']} element, {len(w['element'])} term(s); "
            f"inverse degree {w['inverse_degree']}; a b a = a: {w['aba_equals_a']}"
        )
    _emit(args, data, lines)
    return 0


def cmd_idempotent_report(args) -> int:
    report = _load_report(args)
    images = phi(report)
    e = _load_element(report.algebra, args.element)
    rep = idempotent_report(images, e)
    data = rep.to_json()
    lines = [f"{k}: {v}" for k, v in data.items()]
    _emit(args, data, lines)
    return 0


def cmd_type_witness(args) -> int:
    report = _load_report(args)
    images = phi(report)
    e = type_I_witness(report)
    rep = idempotent_report(images, e)
    if not (rep.is_idempotent and rep.abelian and rep.faithful):
        raise VerificationError("the canonical witness failed its own classification")
    data = {"witness": e.to_json(), "report": rep.to_json()}
    lines = [f"witness has {len(e.terms)} vertex term(s)"]
    lines.extend(f"{k}: {v}" for k, v in rep.to_json().items())
    _emit(args, data, lines)
    return 0


# -- wiring -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `main` reuses it."""
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Leavitt path algebras of finite graphs: graded structure, "
        "matrix block decompositions, regularity witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, element=False, element_required=False):
        p.add_argument("--input", required=True, help="graph JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--field",
            type=_field_arg,
            default=Rationals(),
            help="coefficients: q (exact rationals, default) or fp:P",
        )
        if element:
            p.add_argument(
                "--element",
                required=element_required,
                help="element JSON file (array of {p, p_base, q, q_base, coeff})",
            )

    p = sub.add_parser("classify", help="graded structure flags of the algebra")
    common(p)

    p = sub.add_parser("decompose", help="the graded matrix block decomposition")
    common(p)

    p = sub.add_parser("dims", help="graded dimension series, algebra vs blocks")
    common(p)
    p.add_argument("--bound", type=_count_arg, default=10, help="degree bound (default 10)")

    p = sub.add_parser("verify-iso", help="replay every relation on the block images")
    common(p)
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="deliberately break one image first (self-test of the failure path)",
    )

    p = sub.add_parser("regular-witness", help="inner inverse transcripts a b a = a")
    common(p, element=True)
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--samples", type=_count_arg, default=1, help="sample count (default 1)")

    p = sub.add_parser("idempotent-report", help="classify an idempotent element")
    common(p, element=True, element_required=True)

    p = sub.add_parser("type-witness", help="the canonical faithful abelian idempotent")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a replaced command function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; the interpreter's final flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except GraphError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 1
    except (ExitConditionError, InfiniteEnumerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, NotRegularError) as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
