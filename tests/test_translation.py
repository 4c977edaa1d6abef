"""Translation of norms and of the maximal function.

Rolling f and every spatial exponent field by the same k grid steps moves
every band, weight and maximal function by k, so every norm form is
unchanged up to rounding: the rolled spectrum rounds differently, and the
Luxemburg sums add the same terms in another order.  The maximal function
takes a maximum over the very same products, so it is exactly equivariant.
The shifts are not multiples of the 16-point block of the pruned maximal
function, so its blocks see other samples.  Rolling f but not p breaks the
norm identity for every form (the variable p moves against f's bands).
"""

import numpy as np
import pytest

import vbesov as vb
from vbesov.bank import make_member
from vbesov.besov import FORMS, peetre_maximal
from vbesov.config import RunConfig
from vbesov.exponents import make_exponent_field

# relative tolerance of the rolled norm: 8 ulps, against at most 2 measured
# over these cases (rolling f but not p moves every form by 1e14 ulps)
NORM_RTOL = 8 * np.finfo(float).eps
VARIABLE = RunConfig(p="3 + sin(2 * pi * x / 16)",
                     alpha="3 / 10 + 3 / 5 * sin(2 * pi * x / 16)",
                     q="2 + 1 / log(e + 1 / t)")


def _roll(arr: np.ndarray, shift) -> np.ndarray:
    return np.roll(arr, shift, axis=tuple(range(len(shift))))


def _rolled_field(field, shift):
    spec = field.spec
    return make_exponent_field(_roll(field.grid_values().reshape(spec.shape), shift),
                               field.kind, field.limit_value, spec=spec)


def _norms(f, kernels, alpha, p, q):
    return {form: vb.besov_norm(f, kernels[row.kernel], alpha, p, q, form, a=2.0).value
            for form, row in FORMS.items()}


def _check_equivariant(f, kernels, alpha, p, q, shift):
    moved = vb.GridFunction(f.spec, _roll(f.samples, shift))
    before = _norms(f, kernels, alpha, p, q)
    after = _norms(moved, kernels, _rolled_field(alpha, shift), _rolled_field(p, shift), q)
    for form in FORMS:
        assert after[form] == pytest.approx(before[form], rel=NORM_RTOL, abs=0.0), form


@pytest.fixture(scope="module")
def setup1d():
    spec, ladder = vb.make_grid(1, 16.0, 1024), vb.make_ladder(6, 12)
    kernels = {vb.CalderonFrame: vb.build_resolution_of_unity(spec, ladder),
               vb.LocalMeanPair: vb.build_local_mean_pair(spec, ladder, S=2)}
    return spec, ladder, kernels


@pytest.mark.parametrize("member", ["gauss_w05", "smoothstep_w1", "weier_s03", "bandnoise_a"])
@pytest.mark.filterwarnings("ignore:Peetre order")
def test_every_form_is_translation_invariant_1d(setup1d, member):
    spec, ladder, kernels = setup1d
    f = make_member(spec, member, seed=7)
    _check_equivariant(f, kernels, VARIABLE.alpha_field(spec), VARIABLE.p_field(spec),
                       VARIABLE.q_field(ladder), (37,))


@pytest.mark.filterwarnings("ignore:Peetre order")
def test_every_form_is_translation_invariant_2d():
    spec, ladder = vb.make_grid(2, 16.0, 64), vb.make_ladder(4, 12)
    kernels = {vb.CalderonFrame: vb.build_resolution_of_unity(spec, ladder),
               vb.LocalMeanPair: vb.build_local_mean_pair(spec, ladder, S=1)}
    f = vb.from_callable(spec, lambda x, y: np.exp(-((x - 1) ** 2 + 2 * y ** 2) / 2)
                         * (1 + 0.5 * np.cos(3 * x + y)))
    p = vb.field_from_callable(spec, lambda x, y: 3 + np.sin(2 * np.pi * (x + 2 * y) / 16),
                               "p", 3.0)
    alpha = vb.field_from_callable(spec, lambda x, y: 0.3 + 0.2 * np.cos(2 * np.pi * y / 16),
                                   "alpha", 0.3)
    _check_equivariant(f, kernels, alpha, p, VARIABLE.q_field(ladder), (21, 5))


@pytest.mark.parametrize("dimension, N, shift", [(1, 2048, (37,)), (1, 512, (-9,)),
                                                 (2, 64, (21, 5))])
def test_peetre_maximal_is_exactly_translation_equivariant(dimension, N, shift):
    spec = vb.make_grid(dimension, 16.0, N)
    rng = np.random.default_rng(5)
    g = rng.random(spec.shape) * np.exp(-spec.radius() ** 2 / 4)
    for t, a in ((2.0 ** -3, 2.0), (0.7, 1.5)):
        want = _roll(peetre_maximal(spec, g, t, a), shift)
        assert np.array_equal(peetre_maximal(spec, _roll(g, shift), t, a), want)
