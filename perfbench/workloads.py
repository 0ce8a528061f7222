"""The four benchmark workloads: seeded inputs plus their known answers.

Each workload is a function ``(seed, workdir) -> [Command]``.  Synthetic
``.lie`` files are written into ``workdir``; liecheck sees only those files,
the shipped corpus and argv.  Synthetic answers hold by construction; corpus
answers are written by hand from the package README and its tests.

* ``corpus``  -- every shipped corpus file and malformed fixture.  Tiny
  inputs, so interpreter start-up, imports, parsing and rendering dominate.
* ``ladder``  -- gl(n), n = 3..8, diagonal stabilizer, ``ad(D)``.  Building
  structure constants from n^2 generators, Jacobi validation and membership
  in a nontrivial k dominate; torsion exits early at the first witness.
* ``complex`` -- integrable structures, so every pair loop runs to the end:
  gl(2m) with ``left(J)`` for a conjugated standard J, and u(n)
  Grassmannians.  Dense rational ``apply``, Q(i) elimination for Z+/Z- and
  large-k membership dominate.
* ``harness`` -- the float finite-difference harness at a large sample
  count; the exact layers do one small torsion check per command.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from oracle import Command, expect, gl_ad_witness, has_witness, mat_mul

CORPUS_DIR = "corpus"
FIXTURE_DIR = os.path.join("tests", "data")
HARNESS_SAMPLES = 200


def _json(cid, argv, code, *checks, stderr_has=None):
    return Command(cid, tuple(argv) + ("--report", "json"), code,
                   checks=tuple(checks), stderr_has=stderr_has)


def _lincomb(terms) -> str:
    """``[(coeff, label), ...]`` as ``.lie`` text, e.g. ``3*a - 1/2*b``."""
    out = ""
    for coeff, label in terms:
        c = Fraction(coeff)
        sign = "-" if c < 0 else "+"
        out += f" {sign} {abs(c)}*{label}" if out else f"{'-' if c < 0 else ''}{abs(c)}*{label}"
    return out


def _matrix_text(rows) -> str:
    return "[" + ",".join("[" + ",".join(rows_i) + "]" for rows_i in rows) + "]"


# ---------------------------------------------------------------------------
# corpus: hand-written answers
# ---------------------------------------------------------------------------

# Reasons for the less obvious answers:
# * fam_bad maps e2 to e1, so gamma != -beta: not admissible; the failing
#   clause is the ad_k one because k0 -> k0 preserves k.
# * The sphere demonstrations in the harness are the ones for ad(k0), which
#   sends e2 to e1; fam_unit sends e2 to -e1 and fam_beta2 to -2*e1, so the
#   harness reports FAIL (exit 1) with the sampled torsion still in tolerance.
# * lmul = left(diag(1,2,3)) sends e11 - e22 in sl3 to a matrix of trace -1,
#   so it does not preserve sl3.  trpart kills sl3 and its torsion vanishes
#   (traces of commutators are zero); its square is itself, not -1.
# * Left multiplication by any A has zero torsion: A[X,AY] + A[AX,Y]
#   - [AX,AY] - A^2[X,Y] expands to 0, so lmul and jleft hold.
# * The harness has a model only for a trivial stabilizer on a matrix
#   algebra or for the 3-dimensional rotation pair (README, tests).

def _corpus_commands() -> list:
    cmds = []

    def parse(name, code=0, where=None):
        path = os.path.join(CORPUS_DIR if where is None else FIXTURE_DIR, name)
        if code == 0:
            cmds.append(Command(f"parse {name}", ("parse", path), 0, json_report=False,
                                stdout_prefix=CORPUS_FILES[name]))
        else:
            cmds.append(Command(f"parse {name}", ("parse", path), 2,
                                json_report=False, stderr_has=where))

    def on(name, pair, op, command, code, *checks, mode=None, stderr_has=None):
        argv = [command, os.path.join(CORPUS_DIR, name), "--pair", pair,
                "--operator", op]
        label = command if mode is None else f"{command} --mode {mode}"
        if mode is not None:
            argv += ["--mode", mode]
        cmds.append(_json(f"{label} {name} {pair}/{op}", argv, code, *checks,
                          stderr_has=stderr_has))

    for name in sorted(CORPUS_FILES):
        parse(name)

    f = "so3_sphere.lie"
    on(f, "sphere", "I", "check", 0, expect("scope", "full"))
    on(f, "sphere", "I", "torsion", 0, expect("mode", "all-pairs"),
       expect("checked_pairs", 3), mode="all")
    on(f, "sphere", "I", "torsion", 0, expect("mode", "ad_d-specialized"), mode="ad")
    on(f, "sphere", "I", "integrability", 0, expect("dims.z_plus", 2))
    on(f, "sphere", "I", "harness", 0, expect("model", "sphere-orbit"),
       expect("nijenhuis_exact", True))

    f = "so3_family.lie"
    on(f, "sphere_split", "rot", "check", 0, expect("split_admissible", True))
    on(f, "sphere_split", "rot", "torsion", 0, expect("checked_pairs", 3), mode="all")
    on(f, "sphere_split", "rot", "torsion", 0, expect("mode", "complement-pairs"),
       expect("checked_pairs", 1), mode="complement")
    on(f, "sphere_split", "rot", "torsion", 0, mode="ad")
    on(f, "sphere_split", "rot", "integrability", 0, expect("dims.z_plus", 2),
       expect("split_diagnostics.sum_is_all", True),
       expect("split_diagnostics.intersection_is_kc", True),
       expect("split_diagnostics.eigenspace_decomposition_holds", True))
    on(f, "sphere_split", "rot", "harness", 0, expect("nijenhuis_exact", True))
    on(f, "sphere_split", "fam_unit", "check", 0, expect("split_admissible", False))
    on(f, "sphere_split", "fam_unit", "torsion", 0, mode="all")
    on(f, "sphere_split", "fam_unit", "torsion", 0, mode="complement")
    on(f, "sphere_split", "fam_unit", "integrability", 0, expect("dims.z_plus", 2))
    on(f, "sphere_split", "fam_unit", "harness", 1, expect("nijenhuis_exact", True),
       _deviation_within(1e-5))
    on(f, "sphere_split", "fam_bad", "check", 1,
       expect("failed_clause", "commutes_with_ad_k"), has_witness("z", "v", "value"))
    for mode in ("all", "complement"):
        on(f, "sphere_split", "fam_bad", "torsion", 2, mode=mode,
           stderr_has="NotAdmissible")
    on(f, "sphere_split", "fam_bad", "integrability", 2, stderr_has="NotAdmissible")
    on(f, "sphere_split", "fam_bad", "harness", 2, stderr_has="NotAdmissible")
    on(f, "sphere_split", "fam_beta2", "check", 0)
    on(f, "sphere_split", "fam_beta2", "torsion", 0, mode="all")
    on(f, "sphere_split", "fam_beta2", "torsion", 0, mode="complement")
    on(f, "sphere_split", "fam_beta2", "integrability", 2, stderr_has="NotACAdmissible")
    on(f, "sphere_split", "fam_beta2", "harness", 1, expect("nijenhuis_exact", True),
       _deviation_within(1e-5))

    f = "gl2_complex.lie"
    on(f, "group2", "jleft", "check", 0)
    on(f, "group2", "jleft", "torsion", 0, expect("checked_pairs", 6), mode="all")
    on(f, "group2", "jleft", "integrability", 0, expect("dims.z_plus", 2))
    on(f, "group2", "jleft", "harness", 0, expect("model", "full-group"),
       expect("nijenhuis_exact", True))

    f = "gl3_full.lie"
    on(f, "full", "smix", "check", 0)
    on(f, "full", "smix", "torsion", 1, has_witness("v", "w", "torsion_value"),
       mode="all")
    on(f, "full", "smix", "integrability", 2, stderr_has="NotACAdmissible")
    on(f, "full", "smix", "harness", 0, expect("nijenhuis_exact", False))
    on(f, "full", "lmul", "check", 0)
    on(f, "full", "lmul", "torsion", 0, expect("checked_pairs", 36), mode="all")
    on(f, "full", "lmul", "integrability", 2, stderr_has="NotACAdmissible")
    on(f, "full", "lmul", "harness", 0, expect("nijenhuis_exact", True))
    on(f, "modsl3", "trpart", "check", 0)
    on(f, "modsl3", "trpart", "torsion", 0, expect("checked_pairs", 36), mode="all")
    on(f, "modsl3", "trpart", "integrability", 2, stderr_has="NotACAdmissible")
    on(f, "modsl3", "trpart", "harness", 2, stderr_has="no numerical model")
    on(f, "modsl3", "lmul", "check", 1, expect("failed_clause", "preserves_k"),
       has_witness("vector", "image"))
    on(f, "modsl3", "lmul", "torsion", 2, mode="all", stderr_has="NotAdmissible")
    on(f, "modsl3", "lmul", "integrability", 2, stderr_has="NotAdmissible")
    on(f, "modsl3", "lmul", "harness", 2, stderr_has="no numerical model")

    f = "nil4.lie"
    for op, holds in (("jplane", True), ("jtwist", False)):
        code = 0 if holds else 1
        on(f, "nilgroup", op, "check", 0, expect("split_admissible", True))
        for mode in ("all", "complement"):
            extra = () if holds else (has_witness("v", "w", "torsion_value"),)
            on(f, "nilgroup", op, "torsion", code, *extra, mode=mode)
        extra = (expect("split_diagnostics.sum_is_all", True),) if holds else (
            has_witness("x", "y", "bracket"), expect("nijenhuis_verdict", False))
        on(f, "nilgroup", op, "integrability", code, expect("dims.z_plus", 2), *extra)
        on(f, "nilgroup", op, "harness", 2, stderr_has="matrix generators")

    f = "plane_rotation.lie"
    on(f, "plane", "rot90", "check", 0)
    on(f, "plane", "rot90", "torsion", 0, expect("checked_pairs", 1), mode="all")
    on(f, "plane", "rot90", "torsion", 0, mode="complement")
    on(f, "plane", "rot90", "integrability", 0, expect("dims.z_plus", 1),
       expect("split_diagnostics.intersection_is_kc", True))
    on(f, "plane", "rot90", "harness", 2, stderr_has="matrix generators")

    f = "u4_grassmannian.lie"
    on(f, "grass", "jgr", "check", 0, expect("split_admissible", True))
    on(f, "grass", "jgr", "torsion", 0, expect("checked_pairs", 120), mode="all")
    on(f, "grass", "jgr", "torsion", 0, expect("checked_pairs", 28), mode="complement")
    on(f, "grass", "jgr", "torsion", 0, mode="ad")
    on(f, "grass", "jgr", "integrability", 0, expect("dims.z_plus", 12),
       expect("split_diagnostics.eigenspace_decomposition_holds", True))
    on(f, "grass", "jgr", "harness", 2, stderr_has="no numerical model")

    # Malformed fixtures fail every command at the parse step; positions are
    # the ones the package's acceptance test pins.
    for name, pos in (("bad_scalar.lie", "2:21"), ("inconsistent_bracket.lie", "3:12"),
                      ("unresolved_ref.lie", "2:17")):
        where = f"{name}:{pos}:"
        parse(name, code=2, where=where)
        for command in ("check", "torsion", "integrability", "harness"):
            cmds.append(_json(f"{command} {name}", [command, os.path.join(FIXTURE_DIR, name)],
                              2, stderr_has=where))
    return cmds


# Each corpus file with the first line of its canonical dump.
CORPUS_FILES = {
    "so3_sphere.lie": "algebra so3 {",
    "so3_family.lie": "algebra so3 {",
    "nil4.lie": "algebra nil4 {",
    "plane_rotation.lie": "algebra ab2 {",
    "gl2_complex.lie": "matrix_algebra gl2 dim = 2 {",
    "gl3_full.lie": "matrix_algebra gl3 dim = 3 {",
    "u4_grassmannian.lie": "matrix_algebra u4 dim = 4 {",
}


def _deviation_within(tol: float):
    def check(payload):
        dev = float(payload.get("max_deviation", "nan"))
        if not dev <= tol:
            return f"max_deviation {dev} above {tol}"
        return None
    return check


def corpus(seed: int, workdir: str) -> list:
    cmds = _corpus_commands()
    random.Random(seed).shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# ladder: gl(n) with a diagonal stabilizer and ad(D)
# ---------------------------------------------------------------------------

def _unit(n, i, j, one="1"):
    return [[one if (r, c) == (i, j) else "0" for c in range(n)] for r in range(n)]


def gl_text(n: int, extra: str) -> str:
    """gl(n) over the unit matrices e{i}_{j}, row-major, plus ``extra``."""
    gens = [f"  gen e{i + 1}_{j + 1} = {_matrix_text(_unit(n, i, j))};"
            for i in range(n) for j in range(n)]
    return f"matrix_algebra gl{n} dim = {n} {{\n" + "\n".join(gens) + "\n}\n" + extra


def ladder(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    cmds = []
    for n in range(3, 9):
        diag = tuple(rng.sample([v for v in range(-9, 10) if v != 0], n))
        d_text = _lincomb((v, f"e{i + 1}_{i + 1}") for i, v in enumerate(diag))
        span = ", ".join(f"e{i + 1}_{i + 1}" for i in range(n))
        extra = (f"subalgebra diag of gl{n} = span({span});\n"
                 f"operator D on gl{n} = ad({d_text});\n"
                 f"pair ladder = (gl{n}, diag, connected = true);\n")
        path = os.path.join(workdir, f"ladder_gl{n}.lie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gl_text(n, extra))
        dims = (expect("dims.g", n * n), expect("dims.k", n))
        cmds.append(_json(f"check gl{n}", ["check", path], 0,
                          expect("scope", "full"), *dims))
        cmds.append(_json(f"torsion --mode all gl{n}", ["torsion", path, "--mode", "all"],
                          1, expect("mode", "all-pairs"), gl_ad_witness(n, diag, -1)))
        cmds.append(_json(f"torsion --mode ad gl{n}", ["torsion", path, "--mode", "ad"],
                          1, expect("mode", "ad_d-specialized"), gl_ad_witness(n, diag, 1)))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# complex: gl(2m) with left(P J0 P^-1), and u(n) Grassmannians
# ---------------------------------------------------------------------------

def conjugated_complex_structure(m: int, rng: random.Random):
    """J = P J0 P^-1 for the standard J0 on Q^2m and P = S L U, where L and U
    are the all-ones unit triangular matrices and S is a seeded signed
    permutation.  J is an integer matrix with J^2 = -1; the seed permutes and
    negates its entries, so every seed costs liecheck the same arithmetic."""
    n = 2 * m
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    s = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    low = [[int(i >= j) for j in range(n)] for i in range(n)]
    up = [[int(i <= j) for j in range(n)] for i in range(n)]
    p = mat_mul(mat_mul(s, low), up)
    j0 = [[0] * n for _ in range(n)]
    for i in range(m):
        j0[i][m + i] = -1
        j0[m + i][i] = 1
    j = mat_mul(mat_mul(p, j0), _inverse(p))
    minus_id = [[-int(r == c) for c in range(n)] for r in range(n)]
    if mat_mul(j, j) != minus_id or any(x.denominator != 1 for row in j for x in row):
        raise AssertionError("generated J is not an integral square root of -1")
    return [[int(x) for x in row] for row in j]


def _inverse(a):
    """Gauss-Jordan inverse over the rationals."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _un_generators(n: int):
    """u(n) as labelled skew-hermitian generators d_k, a_jk, s_jk."""
    gens = []
    for k in range(n):
        gens.append((f"d{k + 1}", _unit(n, k, k, "i")))
    for j in range(n):
        for k in range(j + 1, n):
            a = _unit(n, j, k)
            a[k][j] = "-1"
            s = _unit(n, j, k, "i")
            s[k][j] = "i"
            gens.append((f"a{j + 1}{k + 1}", a))
            gens.append((f"s{j + 1}{k + 1}", s))
    return gens


def complex_(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    cmds = []
    for m in (2, 3):
        n = 2 * m
        j = conjugated_complex_structure(m, rng)
        j_text = _matrix_text([[str(x) for x in row] for row in j])
        extra = (f"subalgebra triv of gl{n} = span(0);\n"
                 f"operator J on gl{n} = left({j_text});\n"
                 f"pair group = (gl{n}, triv, connected = true);\n")
        path = os.path.join(workdir, f"complex_gl{n}.lie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gl_text(n, extra))
        dim = n * n
        # Without a complement the default mode is all-pairs, so one torsion
        # command covers both.
        cmds.append(_json(f"torsion gl{n}", ["torsion", path], 0,
                          expect("mode", "all-pairs"),
                          expect("checked_pairs", dim * (dim - 1) // 2)))
        cmds.append(_json(f"integrability gl{n}", ["integrability", path], 0,
                          expect("dims.z_plus", dim // 2),
                          expect("nijenhuis_verdict", True)))
    for n in (4, 5, 6):
        p = n // 2
        gens = _un_generators(n)
        rng.shuffle(gens)

        def same_block(label):
            if label.startswith("d"):
                return True
            a, b = int(label[1]) <= p, int(label[2]) <= p
            return a == b

        k_labels = [lab for lab, _ in gens if same_block(lab)]
        m_labels = [lab for lab, _ in gens if not same_block(lab)]
        center = _lincomb((Fraction(1 if k < p else -1, 2), f"d{k + 1}") for k in range(n))
        body = "\n".join(f"  gen {lab} = {_matrix_text(mat)};" for lab, mat in gens)
        text = (f"matrix_algebra u{n} dim = {n} {{\n{body}\n}}\n"
                f"subalgebra blocks of u{n} = span({', '.join(k_labels)});\n"
                f"complement offdiag of u{n} = span({', '.join(m_labels)});\n"
                f"operator jgr on u{n} = ad({center});\n"
                f"pair grass = (u{n}, blocks, complement offdiag, connected = true);\n")
        path = os.path.join(workdir, f"complex_gr{p}_{n}.lie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        dim, dk, dm = n * n, len(k_labels), len(m_labels)
        cmds.append(_json(f"torsion Gr({p},{n})", ["torsion", path], 0,
                          expect("mode", "complement-pairs"),
                          expect("checked_pairs", dm * (dm - 1) // 2)))
        cmds.append(_json(f"torsion --mode all Gr({p},{n})",
                          ["torsion", path, "--mode", "all"], 0,
                          expect("checked_pairs", dim * (dim - 1) // 2)))
        cmds.append(_json(f"integrability Gr({p},{n})", ["integrability", path], 0,
                          expect("dims.z_plus", dk + p * (n - p)),
                          expect("split_diagnostics.sum_is_all", True),
                          expect("split_diagnostics.intersection_is_kc", True),
                          expect("split_diagnostics.eigenspace_decomposition_holds", True)))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# harness: float cross-validation at a large sample count
# ---------------------------------------------------------------------------

def harness(seed: int, workdir: str) -> list:
    cmds = []
    for name, pair, op, kind, exact in (
        ("so3_sphere.lie", "sphere", "I", "sphere-orbit", True),
        ("gl3_full.lie", "full", "smix", "full-group", False),
        ("gl3_full.lie", "full", "lmul", "full-group", True),
        ("gl2_complex.lie", "group2", "jleft", "full-group", True),
    ):
        argv = ["harness", os.path.join(CORPUS_DIR, name), "--pair", pair,
                "--operator", op, "--samples", str(HARNESS_SAMPLES),
                "--seed", str(seed)]
        cmds.append(_json(f"harness {name} {pair}/{op} samples={HARNESS_SAMPLES}",
                          argv, 0, expect("model", kind), expect("seed", seed),
                          expect("nijenhuis_exact", exact), _sample_count(HARNESS_SAMPLES),
                          _deviation_within(1e-5)))
    random.Random(seed).shuffle(cmds)
    return cmds


def _sample_count(n: int):
    def check(payload):
        got = len(payload.get("samples", ()))
        return None if got == n else f"{got} samples, expected {n}"
    return check


WORKLOADS = {
    "corpus": corpus,
    "ladder": ladder,
    "complex": complex_,
    "harness": harness,
}
