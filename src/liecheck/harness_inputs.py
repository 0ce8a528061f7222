"""What a harness run decides before any float work.

:func:`check_run` decides, in this order: the sample count, the step and
the seed; whether the pair has a float model at all; and admissibility,
through the run's one exact torsion verdict.  Both
:func:`liecheck.harness.run_harness` and the ``harness`` command run it once
and hand its result to the float part, so a command that stops here
compiles none of the float harness and imports no numpy.
"""

from __future__ import annotations

import numbers
import random

from . import MAX_SAMPLES, MAX_STEP, MIN_STEP
from .errors import LieCheckError
from .torsion import check_nijenhuis

# The brackets of the rotation algebra in the sphere model's basis order:
# an algebra given by structure constants has a sphere model only with them.
_SO3_TENSOR = {(0, 1): ((2, -1),), (0, 2): ((1, 1),), (1, 2): ((0, -1),)}


def check_run(pair, op, samples, h, seed) -> tuple:
    """Check a harness run of ``op`` on ``pair``; return the sample generator
    of ``seed`` and the exact torsion report.  In order:
    ``samples`` an integer in [1, ``MAX_SAMPLES``], ``h`` in [``MIN_STEP``,
    ``MAX_STEP``] (written ``not (lo <= h <= hi)``, so a NaN fails), ``seed``
    (:func:`_rng`), the model kind (:func:`_model_kind`), then admissibility
    (:class:`NotAdmissible`)."""
    if not (isinstance(samples, numbers.Integral) and 1 <= samples <= MAX_SAMPLES):
        raise LieCheckError(f"the sample count (--samples) must be an integer in "
                            f"[1, {MAX_SAMPLES}], not {samples!r}")
    if not (MIN_STEP <= h <= MAX_STEP):
        raise LieCheckError(f"the step h (--step) must lie in [{MIN_STEP}, {MAX_STEP}], "
                            f"not {h!r}")
    rng = _rng(seed)
    _model_kind(pair)  # an input error when the pair has no float model
    return rng, check_nijenhuis(pair, op)


def _rng(seed: int) -> random.Random:
    """The sample generator of ``seed``: Python's Mersenne Twister, whose
    ``random()`` stream Python keeps the same across versions."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise LieCheckError(f"the seed must be a non-negative integer, not {seed!r}")
    return random.Random(int(seed))


def _model_kind(pair) -> str:
    """The kind of float model that fits a homogeneous pair
    (``"full-group"`` or ``"sphere-orbit"``), or the input error that says
    why none does."""
    alg = pair.alg
    generators = alg.matrix_generators
    if pair.k.dim == 0:
        if generators is None:
            raise LieCheckError(
                "the full-group model needs an algebra built from matrix generators"
            )
        return "full-group"
    if not (alg.dim == 3 and pair.k.dim == 1):
        raise LieCheckError(
            "no numerical model for this pair (supported: trivial stabilizer on a "
            "matrix algebra, or the 3-dimensional rotation pair)"
        )
    if generators is not None:
        if generators[0].rows != 3:
            raise LieCheckError("the sphere model needs 3x3 generators")
    elif any(alg.nonzeros[i][j] != want for (i, j), want in _SO3_TENSOR.items()):
        raise LieCheckError(
            "no matrix realization: the structure constants are not the "
            "standard rotation-algebra table"
        )
    return "sphere-orbit"
