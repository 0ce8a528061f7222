"""Command-line entry point.

Commands::

    liecheck parse FILE                        syntax check + canonical dump
    liecheck check FILE --pair P --operator I  admissibility verdict
    liecheck torsion FILE --pair P --operator I [--mode all|complement|ad]
    liecheck integrability FILE --pair P --operator J
    liecheck harness FILE --pair P --operator I [--samples N --step H --seed S --theta T]

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

import argparse
import json
import math
import os
import sys
import time
from typing import Optional, Sequence

from . import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_STEP, MAX_STEP, MIN_STEP, _lazy_module
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


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise LieCheckError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def _write(path: Optional[str], text: str):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _stderr(text: str):
    """Write to stderr, or drop the text if stderr is closed or fails."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(text)
    except OSError:
        pass


def _pick(table: dict, requested: Optional[str], what: str):
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
    return {
        "coords": [format_scalar(x) for x in v],
        "pretty": alg.format_element(v),
    }


def _witness(alg, witness, names: Optional[tuple] = None) -> tuple:
    """A witness as its JSON list and its text lines.

    ``witness`` holds ``(name, value)`` pairs, or values that ``names``
    labels.  Each vector appears in label form and in raw coordinates.
    """
    if witness is None:
        return [], []
    entries, lines = {}, ["witness:"]
    for key, val in witness if names is None else zip(names, witness):
        if isinstance(val, tuple):
            vec = entries[key] = _vector_json(alg, val)
            lines.append(f"  {key} = {vec['pretty']}   coords ({', '.join(vec['coords'])})")
        else:
            entries[key] = val
            lines.append(f"  {key} = {val}")
    return [entries], lines


def _dims(pair, **extra) -> dict:
    return {"g": pair.alg.dim, "k": pair.k.dim, **extra}


# Each command maps (args, pair, operator) to (verdict, report fields, text
# lines); _report does the rest.

def _check(args, pair, op) -> tuple:
    report = operators.check_admissible(pair, op)
    witnesses, witness_lines = _witness(pair.alg, report.witness)
    fields = {
        "witnesses": witnesses,
        "dims": _dims(pair),
        "scope": report.scope,
        "clauses": list(report.clauses),
        "failed_clause": report.failed_clause,
    }
    lines = [
        f"admissible: {_yes(report.holds)} (scope: {report.scope})",
        f"clauses evaluated: {', '.join(report.clauses)}",
    ]
    if not report.holds:
        lines.append(f"failed clause: {report.failed_clause}")
        lines.extend(witness_lines)
    if pair.m is not None:
        split = operators._split_verdict(pair, op, report)
        fields["split_admissible"] = split.holds
        fields["split_failed_clause"] = split.failed_clause
        lines.append(f"split admissible: {_yes(split.holds)}")
        if not split.holds:
            lines.append(f"split failed clause: {split.failed_clause}")
    return report.holds, fields, lines


def _torsion(args, pair, op) -> tuple:
    if args.mode == "ad":
        if op.ad_generator is None:
            raise LieCheckError("--mode ad needs an operator declared as ad(...)")
        report = torsion.check_nijenhuis_ad(pair, op.ad_generator)
    else:
        report = torsion.check_nijenhuis(pair, op, pairs=args.mode or "auto")
    witnesses, witness_lines = _witness(pair.alg, report.witness,
                                        ("v", "w", "torsion_value"))
    fields = {
        "witnesses": witnesses,
        "dims": _dims(pair),
        "mode": report.mode,
        "checked_pairs": report.checked_pairs,
    }
    lines = [
        f"nijenhuis: {_yes(report.verdict)} "
        f"({report.mode}, {report.checked_pairs} pairs checked)",
        *witness_lines,
    ]
    return report.verdict, fields, lines


def _integrability(args, pair, op) -> tuple:
    report = complexstruct.check_integrable(pair, op)
    alg = pair.alg
    witnesses, witness_lines = _witness(alg, report.witness, ("x", "y", "bracket"))
    fields = {
        "witnesses": witnesses,
        "dims": _dims(pair, z_plus=report.z_plus.dim, z_minus=report.z_minus.dim),
        "ac_admissible": report.ac_admissible,
        "z_plus_closed": report.z_plus_closed,
        "nijenhuis_verdict": report.nijenhuis_verdict,
        "z_plus_basis": [_vector_json(alg, v) for v in report.z_plus.vectors()],
        "z_plus_mod_k": [_vector_json(alg, v) for v in report.z_plus_mod_k],
    }
    lines = [
        f"integrable: {_yes(report.integrable)}",
        f"dim Z+: {report.z_plus.dim}   (Z+ closed under bracket: "
        f"{_yes(report.z_plus_closed)}; torsion verdict agrees)",
        "Z+ basis:",
        *(f"  {v['pretty']}" for v in fields["z_plus_basis"]),
        "Z+ modulo k_C:",
        *(f"  {v['pretty']}" for v in fields["z_plus_mod_k"]),
    ]
    if report.split is not None:
        d = report.split
        fields["split_diagnostics"] = {
            "sum_is_all": d.sum_is_all,
            "intersection_is_kc": d.intersection_is_kc,
            "eigenspace_decomposition_holds": d.eigenspace_decomposition_holds,
        }
        lines.append(
            "split diagnostics: sum_is_all="
            f"{d.sum_is_all} intersection_is_kc={d.intersection_is_kc} "
            f"eigenspace_decomposition={d.eigenspace_decomposition_holds}"
        )
    lines.extend(witness_lines)
    return report.integrable, fields, lines


def _writes_csv(args) -> bool:
    return args.command == "harness" and bool(args.out) and args.out.endswith(".csv")


def _check_harness_options(args):
    if not (MIN_STEP <= args.step <= MAX_STEP):
        raise LieCheckError(
            f"--step must lie in [{MIN_STEP}, {MAX_STEP}]"
        )
    if not (1 <= args.samples <= 10 ** 6):
        raise LieCheckError("--samples must lie in [1, 1000000]")
    if not math.isfinite(args.theta):
        raise LieCheckError("--theta must be a finite number")
    if args.seed < 0:
        raise LieCheckError("--seed must be a non-negative integer")


def _harness(args, pair, op) -> tuple:
    report = harness.run_harness(pair, op, samples=args.samples, h=args.step,
                                 seed=args.seed, theta=args.theta)
    passed = report.passed
    rel = report.relation
    residuals = {
        "alpha_related": rel.alpha_related_max,
        "base_consistency": rel.base_consistency_max,
        "stabilizer": rel.stabilizer_max,
        "representative_independence": rel.rep_independence_max,
    }
    fields = {
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
            "theta": _fmt_float(rel.theta),
        }
    if args.report == "json" or _writes_csv(args):
        fields["samples"] = [
            {"deviation": _fmt_float(d), "numerical_max": _fmt_float(n),
             "predicted_max": _fmt_float(p)}
            for d, n, p in zip(report.deviation.tolist(), report.numerical_max.tolist(),
                               report.predicted_max.tolist())
        ]
    if _writes_csv(args):
        rows = [",".join((str(idx), *s.values())) for idx, s in enumerate(fields["samples"])]
        _write(args.out, "\n".join(["index,deviation,numerical_max,predicted_max", *rows]) + "\n")
    lines = [
        f"harness: {'pass' if passed else 'FAIL'} on {report.model_kind} model",
        f"samples: {len(report.deviation)}  step: {_fmt_float(report.h)}  "
        f"seed: {report.seed}",
        f"max |numerical - predicted|: {_fmt_float(report.max_deviation)}",
        f"exact torsion verdict: {'holds' if report.nijenhuis_exact else 'fails'}"
        + (f"  (max |numerical|: {_fmt_float(report.max_numerical)})"
           if report.nijenhuis_exact else ""),
        f"relation residual (worst): {_fmt_float(rel.max_residual)}",
    ]
    return passed, fields, lines


_COMMANDS = {
    "check": _check,
    "torsion": _torsion,
    "integrability": _integrability,
    "harness": _harness,
}


def _report(args) -> int:
    """Load the input, run the command on the chosen pair and operator, and
    emit its report; the exit code follows the verdict."""
    started = time.perf_counter()
    built = build(parse(_read(args.file)))
    pair = _pick(built.pairs, args.pair, "pair")
    op = _pick(built.operators, args.operator, "operator")
    operators._require_same_algebra(pair, op)
    verdict, fields, lines = _COMMANDS[args.command](args, pair, op)
    payload = {
        "command": args.command,
        "input": args.file,
        "verdict": verdict,
        "witnesses": [],
        "dims": {},
        "tolerances": {},
        "seed": None,
        "elapsed_ms": None,
        **fields,
    }
    payload["elapsed_ms"] = float((time.perf_counter() - started) * 1000.0)
    body = json.dumps(payload, indent=2) if args.report == "json" else "\n".join(lines)
    _write(None if _writes_csv(args) else args.out, body + "\n")
    return 0 if verdict else 1


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liecheck",
        description="Exact checks for operators on homogeneous pairs of Lie algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help_text, verdict=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input .lie file")
        if verdict:
            p.add_argument("--pair", help="pair name (optional when unique)")
            p.add_argument("--operator", help="operator name (optional when unique)")
            p.add_argument("--report", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to this path")
        return p

    command("parse", "syntax check and canonical dump", verdict=False)
    command("check", "admissibility verdict")
    p = command("torsion", "Nijenhuis torsion verdict")
    p.add_argument("--mode", choices=("all", "complement", "ad"),
                   help="pair iteration mode (default: complement when declared)")
    command("integrability", "almost complex integrability verdict")
    p = command("harness", "numerical cross-validation")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--theta", type=float, default=1.0)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        if args.command == "parse":
            _write(args.out, serialize(parse(_read(args.file))))
            return 0
        if args.command == "harness":
            _check_harness_options(args)
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
