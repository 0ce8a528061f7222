"""The text report, rendered from a command's JSON payload.

Each command builds one JSON payload (:mod:`liecheck.cli`); the text report
shows a subset of its keys, and the harness's sample count from
``--samples``.  A JSON report never runs this module.
"""

from __future__ import annotations

import math


def lines(args, p: dict):
    """The lines of the text report whose JSON payload is ``p``, for the
    command line ``args``."""
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
               f"({p['mode']}, {p['checked_pairs']} pairs checked) (scope: {p['scope']})")
        yield from witness
    elif args.command == "integrability":
        yield f"integrable: {yes[p['verdict']]} (scope: {p['scope']})"
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
        # The key ranks a NaN above every number, so a NaN residual is the
        # worst; each residual is already written with 17 significant digits.
        worst = max(p["relation_residuals"].values(),
                    key=lambda x: (math.isnan(float(x)), float(x)))
        yield (f"harness: {'pass' if p['verdict'] else 'FAIL'} on {p['model']} model "
               f"(scope: {p['scope']})")
        yield f"samples: {args.samples}  step: {p['h']}  seed: {p['seed']}"
        yield f"max |numerical - predicted|: {p['max_deviation']}"
        yield (f"exact torsion verdict: {'holds' if p['nijenhuis_exact'] else 'fails'}"
               + (f"  (max |numerical|: {p['max_numerical_torsion']})"
                  if p["nijenhuis_exact"] else ""))
        yield f"relation residual (worst): {worst}"
