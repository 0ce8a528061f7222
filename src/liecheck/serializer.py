"""The canonical text form of a parsed ``.lie`` document.

Only the ``parse`` command writes it, so the other commands never run this
module.  Every parsed document round-trips: ``parse(serialize(doc)) ==
doc``.  Serialization is canonical: items sorted by kind then name, one
declaration per line, scalars in canonical form, brackets emitted only for
i < j.
"""

from __future__ import annotations

from collections.abc import Sequence

from .exact import ExactMatrix, format_scalar
from .specfile import _CALL_FORMS, SpecDocument


def _lincomb_text(coords: Sequence, labels: Sequence[str]) -> str:
    terms = [(c, lab) for c, lab in zip(coords, labels) if c]
    if not terms:
        return "0"
    parts = []
    for idx, (coeff, lab) in enumerate(terms):
        if idx == 0:
            if coeff == 1:
                parts.append(lab)
            else:
                parts.append(f"{format_scalar(coeff)}*{lab}")
            continue
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        if mag == 1:
            parts.append(f" {sign} {lab}")
        else:
            parts.append(f" {sign} {format_scalar(mag)}*{lab}")
    return "".join(parts)


def _matrix_text(m: ExactMatrix) -> str:
    rows = []
    for i in range(m.rows):
        rows.append("[" + ",".join(format_scalar(e) for e in m.row(i)) + "]")
    return "[" + ",".join(rows) + "]"


def serialize(doc: SpecDocument) -> str:
    """Canonical text form; ``parse(serialize(doc)) == doc``."""
    lines = []
    for name in sorted(doc.algebras):
        a = doc.algebras[name]
        chunks = [f"algebra {a.name} {{ basis {' '.join(a.labels)};"]
        for ia, ib, coords in a.brackets:
            chunks.append(
                f" bracket [{a.labels[ia]},{a.labels[ib]}] = "
                f"{_lincomb_text(coords, a.labels)};"
            )
        chunks.append(" }")
        lines.append("".join(chunks))
    for name in sorted(doc.matrix_algebras):
        m = doc.matrix_algebras[name]
        chunks = [f"matrix_algebra {m.name} dim = {m.size} {{"]
        for gname, mat in zip(m.gen_names, m.gen_matrices):
            chunks.append(f" gen {gname} = {_matrix_text(mat)};")
        chunks.append(" }")
        lines.append("".join(chunks))
    for kind, table in (("subalgebra", doc.subalgebras), ("complement", doc.complements)):
        for name in sorted(table):
            s = table[name]
            labels = doc.labels(s.algebra)
            body = ", ".join(_lincomb_text(v, labels) for v in s.vectors)
            lines.append(f"{kind} {s.name} of {s.algebra} = span({body});")
    for name in sorted(doc.operators):
        o = doc.operators[name]
        labels = doc.labels(o.algebra)
        if o.form == "rules":
            body = " ".join(
                f"{lab} -> {_lincomb_text(coords, labels)};" for lab, coords in o.data
            )
            lines.append(f"operator {o.name} on {o.algebra} {{ {body} }}")
        else:
            args = ", ".join(_lincomb_text(x, labels) if kind == "lincomb" else _matrix_text(x)
                             for kind, x in zip(_CALL_FORMS[o.form][0], o.data))
            lines.append(f"operator {o.name} on {o.algebra} = {o.form}({args});")
    for name in sorted(doc.pairs):
        p = doc.pairs[name]
        parts = [p.algebra, p.subalgebra]
        if p.complement is not None:
            parts.append(f"complement {p.complement}")
        parts.append(f"connected = {'true' if p.connected else 'false'}")
        if p.reps:
            parts.append("reps(" + ", ".join(_matrix_text(r) for r in p.reps) + ")")
        lines.append(f"pair {p.name} = ({', '.join(parts)});")
    return "\n".join(lines) + ("\n" if lines else "")
