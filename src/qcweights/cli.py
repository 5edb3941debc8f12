"""Command line front end.

Commands mirror the library: classify, iset, resonances, enumerate, count,
table, scan.  Output is deterministic: human text by default, JSON with
sorted keys via --format json, CSV for scan rows.  The JSON envelope is
written by an indent-2 writer here, byte-identical to
``json.dumps(sort_keys=True, indent=2)``.  The elapsed-time field
lives only at the top of the JSON envelope, never inside result payloads, so
payloads are byte-stable across runs.

Output is streamed: every format is an iterable of chunks written to the
``--out`` file or to stdout as it is made, so no whole document is held.
The envelope and its result are written key by key.

Long answers are written in runs and batches, not one item at a time:

- A gap set is an ``IntRuns``, a few runs of consecutive integers.  Each
  aligned block of 1,000 integers in a run, from 1,000 up, is written as
  its shared leading digits joined with the 1,000 three-digit suffixes;
  partial blocks and block 0 are written integer by integer.  JSON arrays
  and text sets do the same, with their own separators.
- Resonance witnesses are rendered through a ``%``-template per pair
  (i, j), made once from ``_render_json`` with i and j in it and cached.
  Each stretch of at most ``_ITEM_CHUNK`` witnesses of one pair is one
  ``%`` of it repeated over their k, sliced from the per-pair k arrays
  that ``core.resonances`` holds, with no tuple per witness.
- Scan rows are rendered from the per-window stretches that
  ``core.scan`` holds (``ScanRows.stretches``).  A stretch's rows differ
  only in their last entry and their count, so its line is made once, in
  JSON from the cached ``_scan_row_template`` of its shape, with every
  other slot filled; text and CSV lines are made the same way.  Each piece
  of at most ``_ITEM_CHUNK`` rows is then one ``%`` of its rows' lines over
  their last entries and counts, with no tuple per row.

Exit codes: 0 success, 1 invalid input, 2 internal mismatch (a correctness
failure that must never occur), 3 negative mathematical answer (weight not
in the class, or resonances found).
"""

from __future__ import annotations

import csv
import functools
import json
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii

import click

from qcweights import core, counting
from qcweights.model import (
    ClassFailure,
    IntRuns,
    MembershipVerdict,
    ObstructionSet,
    ScanRows,
    WeightError,
    window_interval,
)

FORMAT_ENVVAR = "QCW_FORMAT"

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    envvar=FORMAT_ENVVAR,
    help="Output format (env default: QCW_FORMAT).",
)
_scan_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    envvar=FORMAT_ENVVAR,
    help="Output format (env default: QCW_FORMAT).",
)
_out_option = click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write output to a file instead of stdout.",
)
_backend_option = click.option(
    "--backend",
    type=click.Choice(list(core.BACKENDS)),
    default="sieve",
    help="Membership backend for set computation: brute (nested loops), or "
    "sieve and apery, which share the Apery engine; all return identical sets.",
)


# A flat integer array, in JSON or as a text set, is written this many items
# per chunk, so a gap set of hundreds of thousands of integers is never held
# as one string.
_INT_CHUNK = 4096

# A ``_Templated`` array, scan rows or resonance witnesses of a few hundred
# bytes each, is written this many items per chunk, with one ``%`` per chunk
# of rows and per stretch of a chunk's witnesses of one pair.  A ``%`` over
# a longer batch grows the heap: at 256 items, rendering the 32,865 rows of
# ``scan --n 3 --max 70`` raised peak RSS by 2 MB after one pass and 5 MB
# after nine; at 64, by nothing.
_ITEM_CHUNK = 64

# The last three digits of the integers of an aligned block of 1,000.
_SUFFIX3 = tuple(f"{t:03d}" for t in range(1000))


def _int_text(values: IntRuns | Sequence[int], sep: str) -> Iterator[str]:
    """``sep.join(map(str, values))`` in pieces: an ``IntRuns`` by its runs
    (see ``_run_text``), any other sequence of integers ``_INT_CHUNK`` at a
    time."""
    if type(values) is IntRuns:
        return _run_text(values.runs, sep)
    return _first_unled(_loose_pieces([values], sep), sep)


def _run_text(runs: tuple[range, ...], sep: str) -> Iterator[str]:
    """``sep.join(map(str, chain(*runs)))`` in pieces; ``runs`` are ranges
    with step 1.

    The integers t*1000 .. t*1000 + 999 with t >= 1 all start with the digits
    of t, so such an aligned block inside a run is one join over
    ``_SUFFIX3``.  The integers around the blocks, partial blocks and block
    0, are written ``_INT_CHUNK`` at a time, integer by integer.
    """
    return _first_unled(_run_pieces(runs, sep), sep)


def _first_unled(pieces: Iterator[str], sep: str) -> Iterator[str]:
    # The pieces, each led by sep, with the first one's sep cut off.
    for piece in pieces:
        yield piece[len(sep) :]
        break
    yield from pieces


def _run_pieces(runs: tuple[range, ...], sep: str) -> Iterator[str]:
    # The text of _run_text, led by one more sep.  Only runs of at least
    # 1,000 integers can hold a block; the runs between them are flattened
    # together.
    loose: list[range] = []
    start = 0
    for at in compress(range(len(runs)), map((1000).__le__, map(len, runs))):
        t, stop = runs[at].start, runs[at].stop
        # The run holds the blocks first .. last - 1, numbered t // 1000.
        first, last = max(-(-t // 1000), 1), stop // 1000
        if first >= last:
            continue
        loose += runs[start:at]
        loose.append(range(t, first * 1000))
        yield from _loose_pieces(loose, sep)
        for p in map(str, range(first, last)):
            yield sep + p
            yield (sep + p).join(_SUFFIX3)
        loose = [range(last * 1000, stop)]
        start = at + 1
    loose += runs[start:]
    yield from _loose_pieces(loose, sep)


def _loose_pieces(stretches: Iterable[Iterable[int]], sep: str) -> Iterator[str]:
    # The stretches' integers, each led by sep, _INT_CHUNK per piece.
    ints = map(int.__repr__, chain.from_iterable(stretches))
    while piece := sep.join(chain(("",), islice(ints, _INT_CHUNK))):
        yield piece


def _fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _set_line(label: str, values: IntRuns | tuple[int, ...] | list[int]) -> Iterator[str]:
    """``f"{label}: {_fmt_set(values)}"`` in pieces (see ``_int_text``), for
    the sets that can hold hundreds of thousands of integers."""
    yield f"{label}: {{"
    yield from _int_text(values, ", ")
    yield "}"


def _fmt_list(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks, in order, to the ``--out`` file or to stdout."""
    if out is None:
        stream = click.get_text_stream("stdout")
        stream.writelines(chunks)
        stream.flush()
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _render_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte."""
    return "".join(_json_chunks(value, indent))


# A slot renders as "\u0000" and so cannot be mistaken for a key or fixed text.
_SLOT = "\x00"
_SLOT_JSON = encode_basestring_ascii(_SLOT)


def _template(value, indent: str) -> str:
    """A ``%``-template for ``_render_json(value, indent)``: each ``_SLOT``
    string in ``value`` becomes a ``%s`` for an already-rendered JSON value."""
    return _render_json(value, indent).replace("%", "%%").replace(_SLOT_JSON, "%s")


class _Templated:
    """A result array whose items are rendered in pieces.

    ``render(items, indent)`` yields the JSON of the items at that indent in
    nonempty pieces, each joined as ``_render_json`` joins an array's items.
    """

    __slots__ = ("items", "render")

    def __init__(self, items, render: Callable[[object, str], Iterable[str]]) -> None:
        self.items = items
        self.render = render


def _json_chunks(value, indent: str = "\n") -> Iterator[str]:
    """``json.dumps(value, sort_keys=True, indent=2)`` in chunks.

    With ``indent`` set, CPython's json falls back to its pure-Python
    encoder, which makes several generator calls per value.  This writer
    writes a dict key by key, a ``_Templated`` array in its render's pieces
    and an integer array, flat or an ``IntRuns``, in the pieces of
    ``_int_text``, and leaves only floats to ``json.dumps``.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{" + inner
        for key in sorted(value):
            yield f"{sep}{encode_basestring_ascii(key)}: "
            yield from _json_chunks(value[key], inner)
            sep = "," + inner
        yield indent + "}"
    elif type(value) is _Templated:
        head = "[" + inner
        for piece in value.render(value.items, inner):
            yield head
            yield piece
            head = "," + inner
        yield "[]" if head[0] == "[" else indent + "]"
    elif isinstance(value, (list, tuple, IntRuns)):
        if not value:
            yield "[]"
            return
        sep = "," + inner
        head = "[" + inner
        # type() rather than isinstance: bools render as true and false.
        if type(value) is IntRuns or {*map(type, value)} == {int}:
            yield head
            yield from _int_text(value, sep)
        else:
            for item in value:
                yield head
                yield from _json_chunks(item, inner)
                head = sep
        yield indent + "]"
    elif isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif type(value) is int:
        yield int.__repr__(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    else:
        yield json.dumps(value)


def _json_document(envelope: dict) -> Iterator[str]:
    yield from _json_chunks(envelope)
    yield "\n"


def _finish(
    command: str,
    input_echo: dict,
    result: dict,
    backend: str | None,
    fmt: str,
    out: str | None,
    started: float,
    text_lines: Callable[[], Iterable[str | Iterator[str]]],
) -> None:
    if fmt == "json":
        envelope = {
            "command": command,
            "input": input_echo,
            "backend": backend,
            "result": result,
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        _write(_json_document(envelope), out)
    else:
        _write(_text_chunks(text_lines()), out)


def _text_chunks(lines: Iterable[str | Iterator[str]]) -> Iterator[str]:
    """The text lines, each ended by a newline; a line given as an iterator
    of chunks (see ``_set_line``) is written chunk by chunk."""
    for line in lines:
        if type(line) is str:
            yield line + "\n"
        else:
            yield from line
            yield "\n"


def _failure_result(failure: ClassFailure | None) -> dict | None:
    if failure is None:
        return None
    return {"reason": failure.reason, "level": failure.level}


def _verdict_result(verdict: MembershipVerdict) -> dict:
    return {
        "weight": list(verdict.weight.m),
        "in_class": verdict.in_class,
        "witnesses": list(verdict.witnesses),
        "failure": _failure_result(verdict.failure),
    }


def _verdict_text(verdict: MembershipVerdict) -> list[str]:
    lines = [
        f"weight: {' '.join(str(x) for x in verdict.weight.m)}",
        f"in_class: {_fmt_bool(verdict.in_class)}",
        f"witnesses: {_fmt_list(verdict.witnesses)}",
    ]
    if verdict.failure is not None:
        lines.append(f"failure: {verdict.failure.reason} (level {verdict.failure.level})")
    return lines


def _iset_result(iset: ObstructionSet) -> dict:
    return {
        "prefix": list(iset.prefix),
        "M": iset.window,
        "interval": list(iset.interval),
        "elements": list(iset.elements),
        "size": iset.size,
    }


@click.group()
def cli() -> None:
    """Exact analyzer for quasi-circular domain weights."""


@cli.command()
@click.argument("weights", nargs=-1, type=int, required=True)
@_format_option
@_out_option
@click.pass_context
def classify(ctx: click.Context, weights: tuple[int, ...], fmt: str, out: str | None) -> None:
    """Decide class membership and report the window witness chain.

    Exits 3 when the weight is not in the class (a valid negative answer).
    """
    started = time.perf_counter()
    verdict = core.is_in_class(core.validate_weight(weights))
    _finish(
        "classify",
        {"weights": list(weights)},
        _verdict_result(verdict),
        "apery",
        fmt,
        out,
        started,
        lambda: _verdict_text(verdict),
    )
    if not verdict.in_class:
        ctx.exit(3)


@cli.command()
@click.argument("prefix", nargs=-1, type=int, required=True)
@click.option("--M", "window", type=int, required=True, help="Window index, >= 1.")
@_backend_option
@_format_option
@_out_option
def iset(prefix: tuple[int, ...], window: int, backend: str, fmt: str, out: str | None) -> None:
    """Compute the obstruction set of one window over a prefix."""
    started = time.perf_counter()
    result_set = core.obstruction_set(prefix, window, backend)

    def text() -> list[str | Iterator[str]]:
        return [
            f"prefix: {' '.join(str(x) for x in result_set.prefix)}",
            f"M: {result_set.window}",
            f"interval: ({result_set.interval[0]}, {result_set.interval[1]})",
            _set_line("elements", result_set.elements),
            f"size: {result_set.size}",
        ]

    _finish(
        "iset",
        {"prefix": list(prefix), "M": window, "backend": backend},
        _iset_result(result_set),
        backend,
        fmt,
        out,
        started,
        text,
    )


@functools.cache
def _witness_template(indent: str | None, i: int, j: int) -> str:
    # i and j are filled in: a listing has one template per pair (i, j).  The
    # JSON of a witness at ``indent``, or its text line without one.
    if indent is None:
        return f"(i={i}, j={j}, k=[" + ", ".join(["%s"] * (j - 1)) + "])"
    return _template({"i": i, "j": j, "k": [_SLOT] * (j - 1)}, indent)


def _witness_pieces(arrays, indent: str | None = None) -> Iterator[str]:
    """The witnesses of ``Resonances.arrays`` as JSON at ``indent`` or, with
    none, as text lines: each stretch of at most ``_ITEM_CHUNK`` witnesses
    of one pair is one piece and one ``%`` of its template, sliced from its
    pair's array only when the piece is made."""
    sep = "\n" if indent is None else "," + indent
    for i, j, flat in arrays:
        line = _witness_template(indent, i, j)
        step = _ITEM_CHUNK * (j - 1)
        for start in range(0, len(flat), step):
            ks = flat[start : start + step]
            yield sep.join([line] * (len(ks) // (j - 1))) % tuple(ks)


@cli.command("resonances")
@click.argument("weights", nargs=-1, type=int, required=True)
@_format_option
@_out_option
@click.pass_context
def resonances_cmd(ctx: click.Context, weights: tuple[int, ...], fmt: str, out: str | None) -> None:
    """List all resonance witnesses of a weight.

    Exits 0 with an empty list when the weight is resonance-free, 3 when
    witnesses exist.
    """
    started = time.perf_counter()
    witnesses = core.resonances(core.validate_weight(weights))
    count = len(witnesses)
    result = {
        "weight": list(weights),
        "count": count,
        "witnesses": _Templated(witnesses.arrays, _witness_pieces),
    }

    def text() -> Iterator[str]:
        yield f"weight: {' '.join(str(x) for x in weights)}"
        yield f"count: {count}"
        yield from _witness_pieces(witnesses.arrays)

    _finish("resonances", {"weights": list(weights)}, result, None, fmt, out, started, text)
    if count:
        ctx.exit(3)


@cli.command("enumerate")
@click.argument("prefix", nargs=-1, type=int, required=True)
@click.option("--M", "window", type=int, required=True, help="Window index, >= 1.")
@_backend_option
@_format_option
@_out_option
def enumerate_cmd(
    prefix: tuple[int, ...], window: int, backend: str, fmt: str, out: str | None
) -> None:
    """Enumerate the admissible next weights of one window over a prefix."""
    started = time.perf_counter()
    admissible = core.enumerate_admissible(prefix, window, backend)
    lo, hi = window_interval(sum(prefix), window)
    result = {
        "prefix": list(prefix),
        "M": window,
        "interval": [lo, hi],
        "admissible": admissible,
        "count": len(admissible),
    }

    def text() -> list[str | Iterator[str]]:
        return [
            f"prefix: {' '.join(str(x) for x in prefix)}",
            f"M: {window}",
            f"interval: ({lo}, {hi})",
            _set_line("admissible", admissible),
            f"count: {len(admissible)}",
        ]

    _finish(
        "enumerate",
        {"prefix": list(prefix), "M": window, "backend": backend},
        result,
        backend,
        fmt,
        out,
        started,
        text,
    )


@cli.command()
@click.argument("m1", type=int)
@click.argument("m2", type=int)
@_format_option
@_out_option
@click.pass_context
def count(ctx: click.Context, m1: int, m2: int, fmt: str, out: str | None) -> None:
    """Report the window-2 gap census with the closed-form count when proven.

    Exits 2 if the closed form disagrees with enumeration; that exit must be
    unreachable.
    """
    started = time.perf_counter()
    report = counting.closed_form_count(m1, m2)
    result = {
        "m1": report.m1,
        "m2": report.m2,
        "window_size": report.window_size,
        "i_set_size": report.i_set_size,
        "gap_set": report.gap_set,
        "formula": report.formula,
        "closed_form": report.closed_form,
        "matches": report.matches,
    }

    def text() -> list[str | Iterator[str]]:
        return [
            f"m1: {report.m1}",
            f"m2: {report.m2}",
            f"window_size: {report.window_size}",
            f"i_set_size: {report.i_set_size}",
            _set_line("gap_set", report.gap_set),
            f"formula: {report.formula if report.formula is not None else 'none'}",
            f"closed_form: {report.closed_form if report.closed_form is not None else 'none'}",
            f"matches: {_fmt_bool(report.matches)}",
        ]

    _finish("count", {"m1": m1, "m2": m2}, result, "sieve", fmt, out, started, text)
    if not report.matches:
        click.echo("internal mismatch: closed form disagrees with enumeration", err=True)
        ctx.exit(2)


def _d_table_lines(m1: int, rows) -> list[str]:
    lines = [f"d and S for m1 = {m1}", "m2  d   S"]
    for m2, d, gap in rows:
        d_text = str(d) if d is not None else "-"
        lines.append(f"{m2:<4}{d_text:<4}{_fmt_set(gap)}")
    return lines


def _f_table_lines(rows) -> list[str]:
    lines = ["f(m2) for m1 = 3", "m2  f"]
    for m2, f in rows:
        lines.append(f"{m2:<4}{f}")
    return lines


@cli.command()
@click.argument("name", type=click.Choice(["d-table", "f-table"]))
@_format_option
@_out_option
def table(name: str, fmt: str, out: str | None) -> None:
    """Reproduce a reference table (gap counts and gap sets)."""
    started = time.perf_counter()
    if name == "d-table":
        rows = counting.table_d(counting.TABLE_D_M1, counting.TABLE_D_M2)
        result = {
            "m1": counting.TABLE_D_M1,
            "rows": [{"m2": m2, "d": d, "S": list(gap)} for m2, d, gap in rows],
        }
        text = functools.partial(_d_table_lines, counting.TABLE_D_M1, rows)
    else:
        rows = counting.table_f(counting.TABLE_F_M2)
        result = {"rows": [{"m2": m2, "f": f} for m2, f in rows]}
        text = functools.partial(_f_table_lines, rows)
    _finish("table", {"name": name}, result, "sieve", fmt, out, started, text)


# Filter name -> (in_class_only, resonance_free_only) for core.scan; the
# disagree filter then keeps the rows that have resonances.
_SCAN_FILTERS = {
    "in-class": (True, False),
    "resonance-free": (False, True),
    "both": (True, True),
    "disagree": (True, False),
}


@functools.cache
def _scan_row_template(
    n_weight: int, n_witnesses: int, n_sizes: int, failed: bool, indent: str
) -> str:
    # Keys in sorted order, which is the order of the template's slots.
    slots = [_SLOT]
    return _template(
        {
            "failure": {"level": _SLOT, "reason": _SLOT} if failed else None,
            "i_set_sizes": slots * n_sizes,
            "in_class": not failed,
            "n_resonances": _SLOT,
            "weight": slots * n_weight,
            "witnesses": slots * n_witnesses,
        },
        indent,
    )


def _scan_json_line(indent: str, stretch: tuple) -> str:
    # The JSON of a row of the stretch with its fixed slots filled: a
    # template whose two slots are the row's n_resonances and its last entry.
    head, witnesses, failure, sizes = stretch[:4]
    if None in sizes:
        sizes = ["null" if s is None else s for s in sizes]
    template = _scan_row_template(
        len(head) + 1, len(witnesses), len(sizes), failure is not None, indent
    )
    if failure is None:
        return template % (*sizes, "%s", *head, "%s", *witnesses)
    reason = encode_basestring_ascii(failure.reason).replace("%", "%%")
    return template % (failure.level, reason, *sizes, "%s", *head, "%s", *witnesses)


def _scan_text_line(stretch: tuple) -> str:
    # The text line of a row of the stretch, with slots for its last entry
    # and its n_resonances.
    head, witnesses, failure, sizes = stretch[:4]
    parts = [
        "".join(f"{e} " for e in head) + "%s",
        f"in_class={_fmt_bool(failure is None)}",
        f"witnesses={_fmt_list(witnesses)}",
        "resonances=%s",
        "i_sizes=" + _fmt_list("-" if s is None else s for s in sizes),
    ]
    if failure is not None:
        parts.append(f"failure={failure.reason}@{failure.level}".replace("%", "%%"))
    return "  ".join(parts)


def _scan_csv_line(writer, stretch: tuple) -> str:
    # The CSV line of a row of the stretch, with slots for its last entry and
    # its n_resonances.  Those two fields and the weight are digits and
    # spaces, which csv never quotes; the writer quotes the others.
    head, witnesses, failure, sizes = stretch[:4]
    middle = writer.writerow([_fmt_bool(failure is None), " ".join(map(str, witnesses))])
    tail = writer.writerow([
        " ".join("-" if s is None else str(s) for s in sizes),
        "" if failure is None else f"{failure.reason}@{failure.level}",
    ])
    middle, tail = middle[:-1].replace("%", "%%"), tail.replace("%", "%%")
    return "".join(f"{e} " for e in head) + f"%s,{middle},%s,{tail}"


def _row_pieces(
    stretches, line: Callable[[tuple], str], sep: str, count_first: bool
) -> Iterator[str]:
    """The rows of ``ScanRows.stretches`` joined by ``sep``, in pieces of
    ``_ITEM_CHUNK`` rows, the last one shorter.  ``line(stretch)`` is a row
    of the stretch with two slots left, its last entry and its
    n_resonances, in that order unless ``count_first``; each piece is one
    ``%`` of the lines of its rows."""
    templates: list[str] = []
    values: list = []
    for stretch in stretches:
        ms, counts = stretch[4:]
        pairs = zip(counts, ms) if count_first else zip(ms, counts)
        template = line(stretch)
        left = len(ms)
        while left:
            taken = min(left, _ITEM_CHUNK - len(templates))
            templates += [template] * taken
            values += chain.from_iterable(islice(pairs, taken))
            left -= taken
            if len(templates) == _ITEM_CHUNK:
                yield sep.join(templates) % tuple(values)
                templates, values = [], []
    if templates:
        yield sep.join(templates) % tuple(values)


def _scan_rows_json(stretches, indent: str) -> Iterator[str]:
    """The JSON of the rows of ``ScanRows.stretches`` at ``indent``, in
    pieces of ``_ITEM_CHUNK`` rows."""
    return _row_pieces(stretches, functools.partial(_scan_json_line, indent), "," + indent, True)


def _scan_text(rows: ScanRows) -> Iterator[str]:
    yield from _row_pieces(rows.stretches, _scan_text_line, "\n", False)
    yield f"rows: {len(rows)}"


class _Lines:
    """A file for ``csv.writer`` whose ``write`` hands the line back, so
    ``writerow`` returns each formatted line as a chunk."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _scan_csv(rows: ScanRows) -> Iterator[str]:
    writer = csv.writer(_Lines, lineterminator="\n")
    yield writer.writerow(
        ["weight", "in_class", "witnesses", "n_resonances", "i_set_sizes", "failure"]
    )
    yield from _row_pieces(rows.stretches, functools.partial(_scan_csv_line, writer), "", False)


@cli.command()
@click.option("--n", "arity", type=int, required=True, help="Weight length, >= 2.")
@click.option("--max", "max_weight", type=int, required=True, help="Largest entry to scan.")
@click.option(
    "--filter",
    "row_filter",
    type=click.Choice(["in-class", "resonance-free", "both", "disagree"]),
    default="in-class",
    help="Which weights become rows.",
)
@_scan_format_option
@_out_option
@click.pass_context
def scan(
    ctx: click.Context,
    arity: int,
    max_weight: int,
    row_filter: str,
    fmt: str,
    out: str | None,
) -> None:
    """Scan all valid weights of one length up to a bound.

    Weights are enumerated in lexicographic order; tuples that fail
    validation (gcd > 1) are skipped silently.  The disagree filter selects
    in-class weights with resonances and must produce zero rows; any row
    makes the scan exit 2.
    """
    started = time.perf_counter()
    in_class_only, resonance_free_only = _SCAN_FILTERS[row_filter]
    rows = core.scan(
        arity, max_weight, in_class_only=in_class_only, resonance_free_only=resonance_free_only
    )
    if row_filter == "disagree":
        rows = ScanRows(
            (*shared, [*compress(ms, counts)], [*filter(None, counts)])
            for *shared, ms, counts in rows.stretches
            if any(counts)
        )
    input_echo = {"n": arity, "max": max_weight, "filter": row_filter}
    if fmt == "csv":
        _write(_scan_csv(rows), out)
    else:
        result = {"rows": _Templated(rows.stretches, _scan_rows_json), "count": len(rows)}
        _finish("scan", input_echo, result, "apery", fmt, out, started, lambda: _scan_text(rows))
    if row_filter == "disagree" and rows:
        click.echo(
            f"internal mismatch: {len(rows)} in-class weights have resonances", err=True
        )
        ctx.exit(2)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        # Without standalone mode, click returns ctx.exit codes instead of
        # calling sys.exit, which keeps the code mapping in one place.
        rv = cli.main(args=argv, prog_name="qcw", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except WeightError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return rv if isinstance(rv, int) else 0
