"""Command-line interface.

Each command returns its JSON document and its text lines, and ``main``
prints the one that ``--format`` asks for.  Exit codes: 0 success, 2
input error, 3 search budget exceeded, 4 valid-but-unsupported
configuration.  JSON output has sorted keys so identical inputs give
byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fourlines, gluing, grouptheory, invariants, topology
from .errors import DEFAULT_BUDGET, BudgetExceededError, InputError, UnsupportedError


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice is an input error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"key {key!r} is repeated in one object")
        out[key] = value
    return out


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # not JSON or not UTF-8, an integer of too many digits, nesting too deep
        raise InputError(f"{path}: {exc}") from exc


def _load_gluing(path: str):
    return gluing.validate_gluing(gluing.gluing_from_dict(_load_json(path)))


def _group_names(text: str) -> list[str]:
    """``--catalog``'s comma-separated names, blanks dropped."""
    return [n.strip() for n in text.split(",") if n.strip()]


def _groups(names: list[str] | None):
    """The catalog groups ``names`` lists, or the whole catalog for None."""
    if names is None:
        return grouptheory.default_catalog()
    if not names:
        raise InputError("the list of groups is empty")
    if len(set(names)) != len(names):
        raise InputError(f"a group is named twice in {','.join(names)}")
    return tuple(grouptheory.catalog_group(n) for n in names)


def _fingerprint_catalog(with_fingerprint: bool, names: list[str] | None):
    """The groups to fingerprint against, or None without ``--fingerprint``."""
    if not with_fingerprint:
        if names is not None:
            raise InputError("--catalog needs --fingerprint")
        return None
    return _groups(names)


def report_to_dict(report: invariants.InvariantReport) -> dict:
    pi1 = {**grouptheory.presentation_to_dict(report.pi1),
           "abelianization": report.homology.h1.as_dict()}
    if report.fingerprint is not None:
        pi1["fingerprint"] = report.fingerprint.as_dict()
    return {
        "chi": report.chi,
        "q": report.q,
        "pg": report.p_g,
        "k2": report.k_squared,
        "cusps": [[gluing.node_id(n) for n in c.nodes] for c in report.cusp_partition],
        "homology": [h.as_dict() for h in report.homology.as_tuple()],
        "pi1": pi1,
    }


def _report_lines(report: invariants.InvariantReport) -> list[str]:
    lines = [
        f"chi(O_X) = {report.chi}",
        f"q        = {report.q}",
        f"p_g      = {report.p_g}",
        f"K^2      = {report.k_squared}",
        "cusps    = " + "  ".join(
            "{" + ",".join(gluing.node_id(n) for n in c.nodes) + "}"
            for c in report.cusp_partition
        ),
        "homology = " + ", ".join(
            f"H{i}={h}" for i, h in enumerate(report.homology.as_tuple())
        ),
        f"pi1      = {report.pi1}",
        f"pi1 ab.  = {report.homology.h1}",
    ]
    if report.fingerprint is not None:
        lines.append(f"fingerprint = {report.fingerprint}")
    return lines


def _table_lines(records):
    """The classification table, one line per orbit under a header.  A
    generator, so the stabilizers' generators are found only when read."""
    header = ("surface", "orbit", "chi", "q", "degenerate cusps", "|Aut|", "Aut")
    table = [header]
    for r in records:
        partition = " ".join(
            "{" + ",".join(fourlines.pretty_node(n) for n in c.nodes) + "}"
            for c in r.report.cusp_partition
        )
        gens = fourlines.generating_set(r.stabilizer)
        table.append((
            r.table_label,
            str(r.orbit_size),
            str(r.report.chi),
            str(r.report.q),
            partition,
            str(len(r.stabilizer)),
            ", ".join(fourlines.perm_to_cycles(g) for g in gens) if gens else "trivial",
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        yield "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()


def _orbit_record_to_dict(r) -> dict:
    return {
        "label": r.table_label,
        "orbit_size": r.orbit_size,
        "representative": {"phi12": list(r.representative.phi12),
                           "phi34": list(r.representative.phi34)},
        "stabilizer": [fourlines.perm_to_cycles(g) for g in r.stabilizer],
        "stabilizer_order": len(r.stabilizer),
        "report": report_to_dict(r.report),
    }


def cmd_classify_four_lines():
    """Classify all gluings of the plane along four general lines."""
    records = fourlines.enumerate_orbits()
    return [_orbit_record_to_dict(r) for r in records], _table_lines(records)


def cmd_invariants(path, with_fingerprint, catalog, budget):
    """Full invariant report for a gluing-data JSON file."""
    groups = _fingerprint_catalog(with_fingerprint, catalog)
    report = invariants.compute_report(_load_gluing(path), catalog=groups, budget=budget)
    return report_to_dict(report), _report_lines(report)


def cmd_pi1(path, with_fingerprint, catalog, budget):
    """Fundamental-group presentation of the glued surface."""
    groups = _fingerprint_catalog(with_fingerprint, catalog)
    raw = topology.pi1_presentation(_load_gluing(path))
    simplified = grouptheory.tietze_simplify(raw)
    ab = grouptheory.abelianization(simplified)  # Tietze moves keep the group
    doc = {
        "presentation": grouptheory.presentation_to_dict(raw),
        "simplified": grouptheory.presentation_to_dict(simplified),
        "abelianization": ab.as_dict(),
    }
    lines = [f"pi1        = {raw}", f"simplified = {simplified}", f"abelianized = {ab}"]
    if groups is not None:
        fp = grouptheory.fingerprint(simplified, catalog=groups, budget=budget)
        doc["fingerprint"] = fp.as_dict()
        lines.append(f"fingerprint = {fp}")
    return doc, lines


def cmd_homology(path):
    """Integral homology groups of the glued surface."""
    groups = topology.homology_of_X(_load_gluing(path)).as_tuple()
    return ({"homology": [h.as_dict() for h in groups]},
            [f"H{i} = {h}" for i, h in enumerate(groups)])


def cmd_distinguish(path1, path2, catalog, budget):
    """Compare fundamental groups of two gluings by finite-quotient counts.

    Differing counts prove the groups non-isomorphic; equal counts prove
    nothing, so the verdict is never 'isomorphic'.
    """
    groups = _groups(catalog)
    left, right = (grouptheory.fingerprint(
        grouptheory.tietze_simplify(topology.pi1_presentation(_load_gluing(path))),
        catalog=groups, budget=budget) for path in (path1, path2))
    witness = next(((name, lt, ls, rt, rs)
                    for (name, lt, ls), (_, rt, rs) in zip(left.counts, right.counts)
                    if (lt, ls) != (rt, rs)), None)
    doc = {
        "verdict": "DISTINGUISHED" if witness else "INCONCLUSIVE",
        "witness": witness[0] if witness else None,
        "fingerprints": [left.as_dict(), right.as_dict()],
    }
    if witness is None:
        return doc, ["INCONCLUSIVE: fingerprints agree over the whole catalog"]
    name, lt, ls, rt, rs = witness
    return doc, [f"DISTINGUISHED at {name}: homomorphisms {lt} vs {rt}, "
                 f"surjections {ls} vs {rs}"]


def cmd_homcount(path, group_names, budget):
    """Count homomorphisms from a presentation JSON file into finite groups."""
    presentation = grouptheory.presentation_from_dict(_load_json(path))
    counts = [(g.name, *grouptheory.hom_count(presentation, g, budget))
              for g in _groups(group_names)]
    return ({name: [total, surj] for name, total, surj in counts},
            [f"{name}: total {total}, surjective {surj}" for name, total, surj in counts])


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for each command that takes it."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*flags, **kwargs)
    return parser


def _parser() -> argparse.ArgumentParser:
    fmt = _option("--format", dest="fmt", choices=["text", "json"], default="text",
                  help="Output format.")
    with_fingerprint = _option("--fingerprint", dest="with_fingerprint", action="store_true",
                               help="Also compute the finite-quotient fingerprint.")
    catalog = _option("--catalog", type=_group_names,
                      help="Comma-separated finite groups to fingerprint "
                           "against (default: built-in list).")
    budget = _option("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                     help="Maximum number of image tuples per homomorphism search "
                          "(default: %(default)s).")
    group = _option("--group", dest="group_names", action="append", metavar="GROUP",
                    help="Target group name; repeatable.  Default: the whole catalog.")
    parser = argparse.ArgumentParser(prog="gluesurf", allow_abbrev=False,
                                     description=main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, fn, positionals, parents in (
        ("classify-four-lines", cmd_classify_four_lines, (), [fmt]),
        ("invariants", cmd_invariants, ("path",), [fmt, with_fingerprint, catalog, budget]),
        ("pi1", cmd_pi1, ("path",), [fmt, with_fingerprint, catalog, budget]),
        ("homology", cmd_homology, ("path",), [fmt]),
        ("distinguish", cmd_distinguish, ("path1", "path2"), [fmt, catalog, budget]),
        ("homcount", cmd_homcount, ("path",), [group, fmt, budget]),
    ):
        command = commands.add_parser(name, parents=parents, allow_abbrev=False,
                                      help=fn.__doc__.splitlines()[0], description=fn.__doc__)
        for positional in positionals:
            command.add_argument(positional)
        command.set_defaults(run=fn)
    return parser


def main(argv: list[str] | None = None) -> None:
    """Invariants of non-normal surfaces described by combinatorial gluing data."""
    args = vars(_parser().parse_args(argv))
    fmt = args.pop("fmt")
    try:
        doc, lines = args.pop("run")(**args)
        print(json.dumps(doc, sort_keys=True, indent=2) if fmt == "json" else "\n".join(lines))
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(4)
    except BrokenPipeError:
        # downstream pager closed early; silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
