"""Flag manifolds U(n)/T^n: an integrability oracle from outside liecheck.

The invariant almost complex structures on the full flag manifold are the
sign choices ``e_jk`` on the root planes ``span(a_jk, s_jk)``: ``a_jk ->
e_jk s_jk``, ``s_jk -> -e_jk a_jk``, and the torus goes to 0.  Such a J is
integrable exactly when the tournament "j beats k when e_jk = +1" is
transitive (Borel–Hirzebruch), so n! of the 2^(n(n-1)/2) choices are; Z+ is
the torus plus the root vectors E_jk with j beating k.  Both facts are
classical and use none of liecheck's definitions.

Only J modulo k matters: adding any map B: g -> t to J leaves every verdict
as it was, while J + B no longer kills the torus or keeps the root planes,
so the split route is closed and Z+ is not an eigenspace of J + B.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

from conftest import property_test, st, u_algebra

from liecheck import (
    GaussianRational,
    HomogeneousPair,
    Subspace,
    check_integrable,
    check_nijenhuis,
    make_subalgebra,
    operator_from_rules,
)


@cache
def flag_pair(n):
    """U(n)/T^n with the root planes as its complement."""
    alg = u_algebra(n)
    torus = [alg.basis_vector(f"d{j}") for j in range(1, n + 1)]
    roots = [alg.basis_vector(label) for label in alg.basis_labels[n:]]
    return HomogeneousPair(alg, make_subalgebra(alg, torus),
                           m=Subspace.from_vectors(alg.dim, roots))


def root_planes(n):
    return list(combinations(range(1, n + 1), 2))


def flag_operator(alg, signs, b=None):
    """``a_jk -> e_jk s_jk`` and ``s_jk -> -e_jk a_jk`` for ``signs`` =
    ``{(j, k): e_jk}``, the torus -> 0; ``b`` maps a label to the torus
    coordinates added to its image."""
    rules = {label: [Fraction(0)] * alg.dim for label in alg.basis_labels}
    for (j, k), e in signs.items():
        rules[f"a{j}{k}"][alg.index_of(f"s{j}{k}")] = Fraction(e)
        rules[f"s{j}{k}"][alg.index_of(f"a{j}{k}")] = Fraction(-e)
    for label, torus in (b or {}).items():
        for t, x in enumerate(torus):
            rules[label][t] += x
    return operator_from_rules(alg, rules)


def random_torus_map(alg, n, rng):
    """A map B: g -> t with every coordinate a nonzero rational."""
    return {label: [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                    for _ in range(n)]
            for label in alg.basis_labels}


def transitive(n, signs):
    beats = {(j, k) if e > 0 else (k, j) for (j, k), e in signs.items()}
    return all((a, c) in beats for a, b, c in permutations(range(1, n + 1), 3)
               if (a, b) in beats and (b, c) in beats)


def verdicts(n, signs, b=None):
    """The integrability verdict of J (+ B), checked against the all-pairs
    torsion verdict, the paper's equivalence; and the report."""
    pair = flag_pair(n)
    op = flag_operator(pair.alg, signs, b)
    report = check_integrable(pair, op)
    assert report.ac_admissible
    assert check_nijenhuis(pair, op, pairs="all").verdict == report.integrable
    assert report.nijenhuis_verdict == report.integrable
    return report


def root_vectors(n, signs):
    """Z+ as the classical (1,0) part: the torus and ``a_jk - i e_jk s_jk``,
    which is 2 E_jk when j beats k and 2 E_kj otherwise."""
    alg = flag_pair(n).alg
    vectors = [alg.basis_vector(f"d{j}") for j in range(1, n + 1)]
    for (j, k), e in signs.items():
        v = [GaussianRational(0)] * alg.dim
        v[alg.index_of(f"a{j}{k}")] = GaussianRational(1)
        v[alg.index_of(f"s{j}{k}")] = GaussianRational(0, -e)
        vectors.append(tuple(v))
    return Subspace.from_vectors(alg.dim, vectors)


def check_structure(n, signs, rng):
    """J and J + B both read the classical verdict and Z+; only J is split."""
    plain = verdicts(n, signs)
    assert plain.integrable == transitive(n, signs)
    assert plain.z_plus == root_vectors(n, signs)
    assert plain.split is not None and plain.split.eigenspace_decomposition_holds
    moved = verdicts(n, signs, random_torus_map(flag_pair(n).alg, n, rng))
    assert moved.integrable == plain.integrable
    assert moved.z_plus == plain.z_plus
    assert moved.split is None
    return plain.integrable


def test_every_structure_on_u3_and_u4():
    for n, integrable in ((3, 6), (4, 24)):
        rng = random.Random(n)
        count = sum(check_structure(n, dict(zip(root_planes(n), signs)), rng)
                    for signs in product((1, -1), repeat=len(root_planes(n))))
        assert count == integrable


@property_test(max_examples=20)
def test_drawn_structures_on_u5_and_u6(data):
    # An order of 1..n gives a transitive tournament; flipping a few planes
    # usually makes a cycle, and the rule decides which.
    n = data.draw(st.sampled_from([5, 6]))
    order = data.draw(st.permutations(range(1, n + 1)))
    flipped = data.draw(st.sets(st.sampled_from(root_planes(n)), max_size=2))
    signs = {(j, k): 1 if (order.index(j) < order.index(k)) != ((j, k) in flipped) else -1
             for j, k in root_planes(n)}
    check_structure(n, signs, random.Random(data.draw(st.integers(0, 2**16))))
