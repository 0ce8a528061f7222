"""Command-line entry point.

Commands::

    liecheck parse FILE                        syntax check + canonical dump
    liecheck check FILE --pair P --operator I  admissibility verdict
    liecheck torsion FILE --pair P --operator I [--mode all|complement|ad]
    liecheck integrability FILE --pair P --operator J
    liecheck harness FILE --pair P --operator I [--samples N --step H --seed S]

The command line is only read here, against one option table; the harness
checks its own inputs (``harness.run_harness``).  Each command builds one
JSON payload; ``_text`` renders the text report from it, and a harness
``--out FILE.csv`` table streams from its float columns.

Exit codes: 0 the checked property holds, 1 it fails (a mathematical
verdict, with an exact witness in the report), 2 usage or input error.
The two are never conflated: a malformed or non-UTF-8 file, an unknown
name, an out-of-range or non-finite option or a violated precondition is
always 2, as is a closed or failing stream (stderr then drops ``error:``
lines).  Any other exception is an internal fault, not a verdict: its
traceback is printed, then ``error: internal error: <Type>: <message>``,
and the exit code is 2.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import time
import types
from collections.abc import Iterable, Sequence

from . import (DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_STEP, MAX_SAMPLES, MAX_STEP, MIN_STEP,
               _lazy_module)
from .errors import LieCheckError
from .exact import format_scalar
from .specfile import SpecfileError, build, parse, serialize

# Each module below runs when a command first reads from it: ``parse`` runs
# none of them, ``check`` and ``torsion`` no complexstruct, and only
# ``harness`` the harness (which imports numpy on first use).
operators = _lazy_module("liecheck.operators")
torsion = _lazy_module("liecheck.torsion")
complexstruct = _lazy_module("liecheck.complexstruct")
harness = _lazy_module("liecheck.harness")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise LieCheckError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def _write(path: str | None, text: str | Iterable[str]):
    """Write ``text``, or each string that it yields, to ``path`` or to stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    elif sys.stdout is None:
        raise OSError("standard output is closed")
    else:
        sys.stdout.writelines(chunks)


def _stderr(text: str):
    """Write to stderr, or drop the text if stderr is closed or fails."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
    except OSError:
        pass


def _pick(table: dict, requested: str | None, what: str):
    if requested is not None:
        if requested not in table:
            raise LieCheckError(f"no {what} named {requested!r} in the input")
        return table[requested]
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise LieCheckError(f"the input declares no {what}")
    raise LieCheckError(
        f"--{what} is required (the input declares {len(table)} of them)"
    )


def _vector_json(alg, v) -> dict:
    return {"coords": [format_scalar(x) for x in v], "pretty": alg.format_element(v)}


def _witness(alg, witness, names: tuple | None = None) -> list:
    """A witness as its JSON list.

    ``witness`` holds ``(name, value)`` pairs, or values that ``names``
    labels.  Each vector appears in label form and in raw coordinates.
    """
    if witness is None:
        return []
    return [{key: _vector_json(alg, val) if isinstance(val, tuple) else val
             for key, val in (witness if names is None else zip(names, witness))}]


def _dims(pair, **extra) -> dict:
    return {"g": pair.alg.dim, "k": pair.k.dim, **extra}


# Each command maps (args, pair, operator) to its report fields, the verdict
# among them; _report adds the fields every report has and renders it.

def _check(args, pair, op) -> dict:
    report = operators.check_admissible(pair, op)
    fields = {
        "verdict": report.holds,
        "witnesses": _witness(pair.alg, report.witness),
        "dims": _dims(pair),
        "scope": report.scope,
        "clauses": list(report.clauses),
        "failed_clause": report.failed_clause,
    }
    if pair.m is not None:
        split = operators._split_verdict(pair, op, report)
        fields["split_admissible"] = split.holds
        fields["split_failed_clause"] = split.failed_clause
    return fields


def _torsion(args, pair, op) -> dict:
    if args.mode == "ad" and op.ad_generator is None:
        raise LieCheckError("--mode ad needs an operator declared as ad(...)")
    report = torsion.check_nijenhuis(pair, op, pairs=args.mode or "auto")
    return {
        "verdict": report.verdict,
        "witnesses": _witness(pair.alg, report.witness, ("v", "w", "torsion_value")),
        "dims": _dims(pair),
        "mode": report.mode,
        "checked_pairs": report.checked_pairs,
    }


def _integrability(args, pair, op) -> dict:
    report = complexstruct.check_integrable(pair, op)
    alg = pair.alg
    fields = {
        "verdict": report.integrable,
        "witnesses": _witness(alg, report.witness, ("x", "y", "bracket")),
        "dims": _dims(pair, z_plus=report.z_plus.dim, z_minus=report.z_minus.dim),
        "ac_admissible": report.ac_admissible,
        "z_plus_closed": report.z_plus_closed,
        "nijenhuis_verdict": report.nijenhuis_verdict,
        "z_plus_basis": [_vector_json(alg, v) for v in report.z_plus.vectors()],
        "z_plus_mod_k": [_vector_json(alg, v) for v in report.z_plus_mod_k],
    }
    if report.split is not None:
        d = report.split
        fields["split_diagnostics"] = {
            "sum_is_all": d.sum_is_all,
            "intersection_is_kc": d.intersection_is_kc,
            "eigenspace_decomposition_holds": d.eigenspace_decomposition_holds,
        }
    return fields


def _writes_csv(args) -> bool:
    return args.command == "harness" and args.out is not None and args.out.endswith(".csv")


def _harness(args, pair, op) -> dict:
    report = harness.run_harness(pair, op, samples=args.samples, h=args.step,
                                 seed=args.seed)
    rel = report.relation
    residuals = {
        "alpha_related": rel.alpha_related_max,
        "base_consistency": rel.base_consistency_max,
        "stabilizer": rel.stabilizer_max,
        "representative_independence": rel.rep_independence_max,
    }
    fields = {
        "verdict": report.passed,
        "model": report.model_kind,
        "seed": report.seed,
        "tolerances": {k: _fmt_float(v) for k, v in harness.TOLERANCES.items()},
        "h": _fmt_float(report.h),
        "nijenhuis_exact": report.nijenhuis_exact,
        "max_deviation": _fmt_float(report.max_deviation),
        "max_numerical_torsion": _fmt_float(report.max_numerical),
        "relation_residuals": {k: _fmt_float(v) for k, v in residuals.items()
                               if v is not None},
    }
    if rel.flip_pushforward is not None:
        fields["sphere_demos"] = {
            "pushforward_of_field": [_fmt_float(x) for x in rel.flip_pushforward],
            "field_at_moved_point": [_fmt_float(x) for x in rel.flip_field_at_image],
            "bundle_map_of_field": [_fmt_float(x) for x in rel.rotation_bundle_value],
            "field_of_mapped_element": [_fmt_float(x) for x in rel.rotation_field_value],
            "theta": _fmt_float(harness.DEMO_THETA),
        }
    columns = (report.deviation, report.numerical_max, report.predicted_max)
    if _writes_csv(args):
        _write(args.out, itertools.chain(
            ["index,deviation,numerical_max,predicted_max\n"],
            (f"{idx},{_fmt_float(d)},{_fmt_float(n)},{_fmt_float(p)}\n"
             for idx, (d, n, p) in enumerate(zip(*columns)))))
    if args.report == "json":
        fields["samples"] = [
            {"deviation": _fmt_float(d), "numerical_max": _fmt_float(n),
             "predicted_max": _fmt_float(p)}
            for d, n, p in zip(*columns)
        ]
    return fields


def _text(args, p: dict):
    """The lines of the text report whose JSON payload is ``p``."""
    yes = ("no", "yes")
    witness = []
    for entry in p["witnesses"]:
        witness.append("witness:")
        witness.extend(f"  {key} = {val['pretty']}   coords ({', '.join(val['coords'])})"
                       if isinstance(val, dict) else f"  {key} = {val}"
                       for key, val in entry.items())
    if args.command == "check":
        yield f"admissible: {yes[p['verdict']]} (scope: {p['scope']})"
        yield f"clauses evaluated: {', '.join(p['clauses'])}"
        if not p["verdict"]:
            yield f"failed clause: {p['failed_clause']}"
            yield from witness
        if "split_admissible" in p:
            yield f"split admissible: {yes[p['split_admissible']]}"
            if not p["split_admissible"]:
                yield f"split failed clause: {p['split_failed_clause']}"
    elif args.command == "torsion":
        yield (f"nijenhuis: {yes[p['verdict']]} "
               f"({p['mode']}, {p['checked_pairs']} pairs checked)")
        yield from witness
    elif args.command == "integrability":
        yield f"integrable: {yes[p['verdict']]}"
        yield (f"dim Z+: {p['dims']['z_plus']}   (Z+ closed under bracket: "
               f"{yes[p['z_plus_closed']]}; torsion verdict agrees)")
        yield "Z+ basis:"
        yield from (f"  {v['pretty']}" for v in p["z_plus_basis"])
        yield "Z+ modulo k_C:"
        yield from (f"  {v['pretty']}" for v in p["z_plus_mod_k"])
        if "split_diagnostics" in p:
            d = p["split_diagnostics"]
            yield ("split diagnostics: sum_is_all="
                   f"{d['sum_is_all']} intersection_is_kc={d['intersection_is_kc']} "
                   f"eigenspace_decomposition={d['eigenspace_decomposition_holds']}")
        yield from witness
    else:
        # The key ranks a NaN above every number, so a NaN residual is the worst.
        worst = max(map(float, p["relation_residuals"].values()),
                    key=lambda x: (math.isnan(x), x))
        yield f"harness: {'pass' if p['verdict'] else 'FAIL'} on {p['model']} model"
        yield f"samples: {args.samples}  step: {p['h']}  seed: {p['seed']}"
        yield f"max |numerical - predicted|: {p['max_deviation']}"
        yield (f"exact torsion verdict: {'holds' if p['nijenhuis_exact'] else 'fails'}"
               + (f"  (max |numerical|: {p['max_numerical_torsion']})"
                  if p["nijenhuis_exact"] else ""))
        yield f"relation residual (worst): {_fmt_float(worst)}"


def _report(args) -> int:
    """Load the input, run the command on the chosen pair and operator, and
    emit its report; the exit code follows the verdict."""
    started = time.perf_counter()
    built = build(parse(_read(args.file)))
    pair = _pick(built.pairs, args.pair, "pair")
    op = _pick(built.operators, args.operator, "operator")
    operators._require_same_algebra(pair, op)
    payload = {"command": args.command, "input": args.file, "verdict": None, "witnesses": [],
               "dims": {}, "tolerances": {}, "seed": None, "elapsed_ms": None,
               **_COMMAND_LINE[args.command][0](args, pair, op)}
    payload["elapsed_ms"] = float((time.perf_counter() - started) * 1000.0)
    if args.report == "json":
        import json  # only JSON reports use it

        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = (f"{line}\n" for line in _text(args, payload))
    _write(None if _writes_csv(args) else args.out, body)
    return 0 if payload["verdict"] else 1


# The command line, read by _read_argv and printed by _usage and _help.  A
# command maps to (its report function, or None for parse; its summary; its
# options).  An option maps its name to (a converter, or a tuple of the
# values it accepts; its default; its help).  Every command also takes FILE
# and -h/--help.
_OUT = {"out": (str, None, "write the report to this path")}
_VERDICT = {
    "pair": (str, None, "pair name (optional when unique)"),
    "operator": (str, None, "operator name (optional when unique)"),
    "report": (("text", "json"), "text", "report format"),
    **_OUT,
}
_COMMAND_LINE = {
    "parse": (None, "syntax check and canonical dump", _OUT),
    "check": (_check, "admissibility verdict", _VERDICT),
    "torsion": (_torsion, "Nijenhuis torsion verdict", {
        **_VERDICT,
        "mode": (("all", "complement", "ad"), None,
                 "pair iteration mode (default: complement when declared)"),
    }),
    "integrability": (_integrability, "almost complex integrability verdict", _VERDICT),
    "harness": (_harness, "numerical cross-validation", {
        **_VERDICT,
        "samples": (int, DEFAULT_SAMPLES, f"number of sample points, 1 to {MAX_SAMPLES}"),
        "step": (float, DEFAULT_STEP, f"finite-difference step in [{MIN_STEP}, {MAX_STEP}]"),
        "seed": (int, DEFAULT_SEED, "seed of the sample points, a non-negative integer"),
    }),
}
# A word that reads as a negative number is a value, not an option.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _metavar(name: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: liecheck [-h] {{{','.join(_COMMAND_LINE)}}} ..."
    options = (f"[--{name} {_metavar(name, kind)}]"
               for name, (kind, _, _) in _COMMAND_LINE[command][2].items())
    return " ".join(["usage: liecheck", command, "[-h]", *options, "file"])


def _help(command: str | None) -> str:
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        about = "Exact checks for operators on homogeneous pairs of Lie algebras"
        rows = [*((name, summary) for name, (_, summary, _) in _COMMAND_LINE.items()),
                help_row]
    else:
        _, about, options = _COMMAND_LINE[command]
        rows = [("file", "input .lie file"), help_row, *(
            (f"--{name} {_metavar(name, kind)}",
             text if default is None else f"{text} (default: {default})")
            for name, (kind, default, text) in options.items())]
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(command), "", about, "", "arguments:",
                      *(f"  {left:<{width}}{right}" for left, right in rows)]) + "\n"


def _usage_error(command: str | None, message: str):
    prog = "liecheck" if command is None else f"liecheck {command}"
    _stderr(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(command: str | None, word: str, names) -> tuple:
    """``(name, value)`` for an option word: ``--name``, ``--name=value`` or
    a unique prefix of a name (value ``None`` without ``=``);
    ``("", None)`` for an option of no such name, ``(None, None)`` for a
    positional word."""
    if word == "-h":
        return "help", None
    if word.startswith("--") and len(word) > 2:
        key, eq, value = word[2:].partition("=")
        found = [key] if key in names else [name for name in names if name.startswith(key)]
        if len(found) > 1:
            _usage_error(command, f"ambiguous option: {word} could match "
                                  + ", ".join(f"--{name}" for name in found))
        if found:
            return found[0], value if eq else None
    if (len(word) < 2 or word[0] != "-" or " " in word
            or _NEGATIVE_NUMBER.fullmatch(word)):
        return None, None
    return "", None


def _read_argv(argv: Sequence[str]):
    """The command and its options that ``argv`` holds, read against
    ``_COMMAND_LINE``.

    An option reads as ``--name value`` or ``--name=value``, by its full
    name or a unique prefix, before or after FILE; when it is repeated the
    last one counts, and ``--`` ends the options.  A usage error prints the
    usage line and an ``error:`` line to stderr and raises
    ``SystemExit(2)``; ``-h``/``--help`` prints the help to stdout and raises
    ``SystemExit(0)``.
    """
    words = iter(argv)
    command = next(words, None)
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    if command not in _COMMAND_LINE:
        name, value = _option(None, command, ("help",))
        if name != "help" or value is not None:
            _usage_error(None, f"argument command: invalid choice: {command!r} (choose from "
                               + ", ".join(map(repr, _COMMAND_LINE)) + ")")
        print(_help(None), end="")
        raise SystemExit(0)
    options = _COMMAND_LINE[command][2]
    names = ("help", *options)
    args = types.SimpleNamespace(command=command, **{
        name: default for name, (_, default, _) in options.items()})
    positional, unknown = [], []
    for word in words:
        if word == "--":
            positional.extend(words)
            break
        name, value = _option(command, word, names)
        if name is None:
            positional.append(word)
        elif not name:
            unknown.append(word)
        elif name == "help":
            if value is not None:
                _usage_error(command, f"argument -h/--help: ignored explicit argument {value!r}")
            print(_help(command), end="")
            raise SystemExit(0)
        else:
            if value is None:
                value = next(words, None)
                if value is None or _option(command, value, names)[0] is not None:
                    _usage_error(command, f"argument --{name}: expected one argument")
            kind = options[name][0]
            if isinstance(kind, tuple):
                if value not in kind:
                    _usage_error(command, f"argument --{name}: invalid choice: {value!r} "
                                          f"(choose from {', '.join(map(repr, kind))})")
            else:
                try:
                    value = kind(value)
                except ValueError:
                    _usage_error(command, f"argument --{name}: invalid {kind.__name__} "
                                          f"value: {value!r}")
            setattr(args, name, value)
    if not positional:
        _usage_error(command, "the following arguments are required: file")
    args.file, *extra = positional
    if unknown or extra:
        _usage_error(command, f"unrecognized arguments: {' '.join(unknown + extra)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "parse":
            _write(args.out, serialize(parse(_read(args.file))))
            return 0
        return _report(args)
    except SpecfileError as exc:
        message = f"{args.file}:{exc}"
    except LieCheckError as exc:
        message = f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        message = str(exc)
    except Exception as exc:
        import traceback  # only this fault path uses it

        _stderr(traceback.format_exc())
        message = f"internal error: {type(exc).__name__}: {exc}"
    _stderr(f"error: {message}\n")
    return 2


def console_main():
    """Run :func:`main`, flush its output and end the process at once.

    ``os._exit`` skips interpreter teardown (freeing every module), a fixed
    cost of every command.  Every file a command writes is closed by a
    ``with`` block, so only the standard streams are left to flush.  A failed
    flush is an output error: exit 2.
    A usage error or ``--help`` leaves ``main`` by ``SystemExit`` and exits
    the usual way.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = 2
        _stderr(f"error: {exc}\n")
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    console_main()
