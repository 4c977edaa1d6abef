import csv
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

import vbesov as vb
from vbesov import atoms
from vbesov.atoms import AtomicDecomposition, export_coefficients
from vbesov.errors import HypothesisViolationError, ParameterError
from vbesov.grid import _multi_indices, cubes_per_axis

from oracles import (POWER_WEIGHT_RTOL, analyze_eager, level_lattices_unskipped,
                     sequence_norm_b_loop, synthesize_atoms, synthesize_spatial)


@pytest.fixture(scope="module")
def setup2k():
    spec = vb.make_grid(1, 16.0, 2048)
    ladder = vb.make_ladder()
    frame = vb.build_resolution_of_unity(spec, ladder)
    return spec, ladder, frame


def _psi_values(spec, v, m, K):
    """psi(2^v x - m - 1/2) for a fixed C^{K+1} bump inside (-3/2, 3/2)."""
    x = spec.axis_coords()
    u = (2.0 ** v * x - m - 0.5) / 1.4
    return np.where(np.abs(u) < 1, (1 - np.minimum(u ** 2, 1.0)) ** (K + 2), 0.0)


def _bump_atom(spec, v, m, K, psi_norm=None):
    a = vb.GridFunction(spec, 2.0 ** (v / 2) * _psi_values(spec, v, m, K))
    if psi_norm is None:
        probe = vb.validate_atom(a, v, (m,), K, -1, 3.0)
        psi_norm = probe.validation["derivative_inflation"]
    return vb.GridFunction(spec, a.samples / psi_norm), psi_norm


def test_validate_scaled_bump_passes(setup2k):
    spec, ladder, frame = setup2k
    a3, _ = _bump_atom(spec, 3, 2, K=2)
    rep = vb.validate_atom(a3, 3, (2,), 2, -1, 3.0)
    assert rep.validation["pass"], rep.validation


def test_validate_bump_scaling_across_levels(setup2k):
    # the same normalized psi placed at a finer level still meets the
    # 2^{v(|beta|+1/2)} bounds: the scaling structure is exact, only the
    # discrete derivative measurement drifts with fewer samples per support
    spec, ladder, frame = setup2k
    _, psi_norm = _bump_atom(spec, 3, 2, K=2)
    a4 = vb.GridFunction(spec, 2.0 ** 2 * _psi_values(spec, 4, 5, 2) / psi_norm)
    rep = vb.validate_atom(a4, 4, (5,), 2, -1, 3.0)
    assert rep.validation["pass_support"]
    assert rep.validation["derivative_inflation"] <= 1.05


def test_validate_nonzero_mean_fails_moments(setup2k):
    spec, ladder, frame = setup2k
    a, _ = _bump_atom(spec, 3, 2, K=2)  # int psi != 0
    rep = vb.validate_atom(a, 3, (2,), 2, 0, 3.0)
    assert not rep.validation["pass_moments"]
    assert not rep.validation["pass"]
    assert rep.validation["moments"]["0"]["value"] > rep.validation["moments"]["0"]["tolerance"]


def test_validate_zero_function(setup2k):
    spec, ladder, frame = setup2k
    zero = vb.from_callable(spec, lambda x: np.zeros_like(x))
    rep = vb.validate_atom(zero, 4, (1,), 3, 1, 2.0)
    assert rep.validation["pass"]


def test_validate_rejects_bad_params(setup2k):
    spec, ladder, frame = setup2k
    zero = vb.from_callable(spec, lambda x: np.zeros_like(x))
    with pytest.raises(ParameterError):
        vb.validate_atom(zero, 1, (0,), -1, -1, 3.0)
    with pytest.raises(ParameterError):
        vb.validate_atom(zero, 1, (0,), 1, -1, 0.5)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 1.0, 0.5])
def test_analyze_rejects_gamma_before_any_transform(setup2k, monkeypatch, gamma):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    monkeypatch.setattr(atoms, "spectrum", None)
    with pytest.raises(ParameterError, match=r"gamma > 1 finite; got K = 2, L = 0, gamma"):
        vb.analyze(f, frame, V=3, gamma=gamma)
    with pytest.raises(ParameterError, match=r"gamma > 1 finite"):
        vb.validate_atom(f, 1, (0,), 2, 0, gamma)


def test_analyze_zero(setup2k):
    spec, ladder, frame = setup2k
    zero = vb.from_callable(spec, lambda x: np.zeros_like(x))
    dec = vb.analyze(zero, frame, V=5)
    assert all(lam == 0.0 for lam in dec.coefficients.values())
    rec = vb.synthesize(dec)
    assert np.max(np.abs(rec.samples)) == 0.0


def test_analyze_hypothesis_checks(setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    alpha = vb.constant_field(spec, 1.2, "alpha")
    with pytest.raises(HypothesisViolationError, match="K"):
        vb.analyze(f, frame, V=4, K=1, L=0, target_alpha=alpha)
    alpha_neg = vb.constant_field(spec, -0.3, "alpha")
    with pytest.raises(HypothesisViolationError, match="L"):
        vb.analyze(f, frame, V=4, K=2, L=-1, target_alpha=alpha_neg)


def test_analyze_level_cap(setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2))
    with pytest.raises(ParameterError):
        vb.analyze(f, frame, V=ladder.octaves + 1)
    # the decomposition's grid is the frame's, so f must live on it
    other = vb.from_callable(vb.make_grid(1, 8.0, 2048), lambda x: np.exp(-x ** 2))
    with pytest.raises(ParameterError, match="but the frame on"):
        vb.analyze(other, frame, V=2)


def test_round_trip_band_limited(setup2k):
    spec, ladder, frame = setup2k
    for fn in (lambda x: np.exp(-x ** 2 / 2),
               lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2)):
        f = vb.from_callable(spec, fn)
        dec = vb.analyze(f, frame, V=7)
        rec = vb.synthesize(dec)
        num = np.sqrt(np.sum(np.abs(rec.samples - f.samples) ** 2))
        den = np.sqrt(np.sum(np.abs(f.samples) ** 2))
        assert num / den <= 0.05


def test_coefficient_tiling_parseval(setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.cos(6 * x) * np.exp(-x ** 2 / 2))
    dec = vb.analyze(f, frame, V=7)
    lhs = sum(lam ** 2 for (v, m), lam in dec.coefficients.items() if v >= 1)
    lhs0 = sum(lam ** 2 for (v, m), lam in dec.coefficients.items() if v == 0)
    # independent side: ladder quadrature of the analysis-transform energies
    from vbesov.grid import from_spectrum, spectrum
    F = spectrum(f)
    sr = spec.freq_radius()
    h = spec.spacing
    rhs = 0.0
    for t, w in zip(ladder.t[:7 * ladder.nodes_per_octave],
                    ladder.weights[:7 * ladder.nodes_per_octave]):
        g = from_spectrum(spec, frame.profile.psi_hat(t * sr) * F)
        rhs += w * float(np.sum(np.abs(g.samples) ** 2) * h)
    rhs *= dec.C_phi ** 2
    g0 = from_spectrum(spec, frame.profile.Psi_hat(sr) * F)
    rhs0 = dec.C_Phi ** 2 * float(np.sum(np.abs(g0.samples) ** 2) * h)
    ratio = (lhs + lhs0) / (rhs + rhs0)
    assert 1 / 1.5 <= ratio <= 1.5


def test_zero_coefficient_zero_atom(setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    dec = vb.analyze(f, frame, V=6)
    zero_keys = [k for k, lam in dec.coefficients.items() if lam == 0.0]
    assert zero_keys, "expected deep-level zero coefficients for a Gaussian"
    for k in zero_keys[:10]:
        assert np.max(np.abs(dec.atom(k).samples.samples)) == 0.0


@pytest.fixture(scope="module")
def gauss2k(setup2k):
    """An analysed decomposition whose coefficients the tests replace."""
    spec, ladder, frame = setup2k
    return vb.analyze(vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2)), frame, V=0)


def _with_coefficients(dec, V, coefficients):
    """dec with V and the coefficients of a {(v, m): lambda} dict over levels
    0..V and any deeper level it names; a cube the dict leaves out holds 0."""
    spec = dec.spec
    levels = [np.zeros((cubes_per_axis(spec, v),) * spec.dimension)
              for v in range(max([V, *(v for v, _ in coefficients)]) + 1)]
    for (v, m), lam in coefficients.items():
        levels[v][tuple(np.add(m, levels[v].shape[0] // 2))] = lam
    return dataclasses.replace(dec, V=V, levels=tuple(levels))


def test_sequence_norm_trivials(setup2k, gauss2k):
    spec, ladder, frame = setup2k
    p2 = vb.constant_field(spec, 2.0)
    a0 = vb.constant_field(spec, 0.0, "alpha")
    q2 = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    empty = _with_coefficients(
        gauss2k, 2, {(v, (m,)): 0.0 for v in range(3) for m in range(-2, 2)})
    assert vb.sequence_norm_b(empty, a0, p2, q2) == 0.0

    one = _with_coefficients(gauss2k, 1, {(0, (0,)): 1.0})
    val = vb.sequence_norm_b(one, a0, p2, q2, form="continuous")
    assert val == pytest.approx(1.0, rel=1e-9)  # |chi_{0,0}|_2 on the unit cube


@pytest.mark.parametrize("coefficients", [
    {(0, (0,)): 1.0},                   # levels 1..V all zero
    {(0, (0,)): 1.0, (1, (0,)): 1.0},
], ids=["level0-only", "with-level1"])
def test_sequence_norm_rejects_unknown_form(setup2k, gauss2k, coefficients):
    spec, ladder, frame = setup2k
    p2 = vb.constant_field(spec, 2.0)
    a0 = vb.constant_field(spec, 0.0, "alpha")
    q2 = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    dec = _with_coefficients(gauss2k, 3, coefficients)
    with pytest.raises(ParameterError, match="unknown sequence-norm form 'bogus'"):
        vb.sequence_norm_b(dec, a0, p2, q2, form="bogus")


def test_sequence_norm_forms_comparable(setup2k, gauss2k):
    spec, ladder, frame = setup2k
    rng = np.random.default_rng(11)
    coeffs = {}
    for v in range(0, 5):
        n = 16 * 2 ** v
        for j, m in enumerate(range(-(n // 2), n // 2)):
            coeffs[(v, (m,))] = float(rng.random() * 2.0 ** (-v))
    dec = _with_coefficients(gauss2k, 4, coeffs)
    p2 = vb.constant_field(spec, 2.0)
    a05 = vb.constant_field(spec, 0.5, "alpha")
    ql = vb.q_field_from_callable(
        ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0)
    cont = vb.sequence_norm_b(dec, a05, p2, ql, form="continuous")
    disc = vb.sequence_norm_b(dec, a05, p2, ql, form="discrete")
    ratio = cont / disc
    assert 1 / 2 <= ratio <= 2


def test_sequence_norm_sign_switch(setup2k, gauss2k):
    spec, ladder, frame = setup2k
    dec = _with_coefficients(gauss2k, 2, {(1, (0,)): 1.0, (2, (1,)): 0.5})
    p2 = vb.constant_field(spec, 2.0)
    a0 = vb.constant_field(spec, 0.0, "alpha")
    q2 = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 0 * t, 2.0)
    plus = vb.sequence_norm_b(dec, a0, p2, q2, form="discrete", half_dim_sign=1.0)
    minus = vb.sequence_norm_b(dec, a0, p2, q2, form="discrete", half_dim_sign=-1.0)
    assert plus > minus  # the +n/2 normalization weighs fine levels more


def test_sequence_norm_rejects_levels_beyond_the_ladder(setup2k):
    spec, _, _ = setup2k
    coefficients = {(v, (0,)): 100.0 if v >= 4 else 1.0 for v in range(6)}

    def built(ladder):
        f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
        dec = vb.analyze(f, vb.build_resolution_of_unity(spec, ladder), V=0)
        return _with_coefficients(dec, 5, coefficients)

    p2 = vb.constant_field(spec, 2.0)
    a05 = vb.constant_field(spec, 0.5, "alpha")
    short = vb.make_ladder(3, 12)
    q2 = vb.q_field_from_callable(short.t, lambda t: 2.0 + 0 * t, 2.0)
    dec = built(short)
    with pytest.raises(ParameterError, match=r"V = 5 .* 3 octaves"):
        vb.sequence_norm_b(dec, a05, p2, q2, form="continuous")
    # the discrete form has no ladder and reads every level
    shallow = dataclasses.replace(dec, V=3)
    assert (vb.sequence_norm_b(dec, a05, p2, q2, form="discrete")
            > vb.sequence_norm_b(shallow, a05, p2, q2, form="discrete"))
    # a ladder deep enough for V takes the deep levels into account
    deep = vb.make_ladder(5, 12)
    q5 = vb.q_field_from_callable(deep.t, lambda t: 2.0 + 0 * t, 2.0)
    full = vb.sequence_norm_b(built(deep), a05, p2, q5)
    assert full > vb.sequence_norm_b(shallow, a05, p2, q2)


@pytest.mark.parametrize("dimension, L, N, octaves, V", [
    (1, 16.0, 2048, 7, 7), (1, 16.0, 2048, 7, 4), (2, 8.0, 64, 3, 3), (2, 8.0, 64, 3, 2),
], ids=["1d-V=octaves", "1d-V<octaves", "2d-V=octaves", "2d-V<octaves"])
@pytest.mark.parametrize("exponents", ["const", "variable"])
def test_sequence_norm_equals_the_hand_loop(dimension, L, N, octaves, V, exponents):
    spec = vb.make_grid(dimension, L, N)
    ladder = vb.make_ladder(octaves, 12)
    frame = vb.build_resolution_of_unity(spec, ladder)
    f = vb.from_callable(spec, lambda *x: np.cos(3 * x[0]) * np.exp(-sum(c * c for c in x) / 2))
    dec = vb.analyze(f, frame, V=V)
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0)
    if exponents == "const":
        alpha, p = vb.constant_field(spec, 0.5, "alpha"), vb.constant_field(spec, 2.0)
    else:
        alpha = vb.field_from_callable(
            spec, lambda *x: 0.3 + 0.6 * np.sin(2 * np.pi * x[0] / L), "alpha", 0.3)
        p = vb.field_from_callable(spec, lambda *x: 3 + np.sin(2 * np.pi * x[0] / L), "p", 3.0)
    # the continuous form gets the bits of one-row calls with the weights as
    # log terms, and is within POWER_WEIGHT_RTOL of the power-weight loop
    for form in ("continuous", "discrete"):
        for sign in (1.0, -1.0):
            got = vb.sequence_norm_b(dec, alpha, p, q, form, sign)
            assert got == sequence_norm_b_loop(dec, alpha, p, q, form, sign,
                                               log_weights=True), (form, sign)
            assert got == pytest.approx(sequence_norm_b_loop(dec, alpha, p, q, form, sign),
                                        rel=POWER_WEIGHT_RTOL, abs=0.0), (form, sign)


def test_discrete_sequence_norm_is_one_row_solve(monkeypatch, setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.cos(3 * x) * np.exp(-x * x / 2))
    dec = vb.analyze(f, frame, V=5)
    blocks = []
    solve = atoms.solve_luxemburg_rows
    monkeypatch.setattr(atoms, "solve_luxemburg_rows",
                        lambda vals, *args: blocks.append(len(vals)) or solve(vals, *args))
    q = vb.q_field_from_callable(ladder.t, lambda t: 2.0 + 1.0 / np.log(np.e + 1.0 / t), 2.0)
    vb.sequence_norm_b(dec, vb.constant_field(spec, 0.5, "alpha"), vb.constant_field(spec, 3.0),
                       q, form="discrete")
    # the level block, then the one-row collapse at the scalar q(0)
    assert blocks == [dec.V + 1, 1]


def test_export_import_roundtrip(tmp_path, setup2k):
    # the coefficient CSV that `decompose` writes, read back with csv.reader,
    # recovers every coefficient exactly
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    dec = vb.analyze(f, frame, V=5)
    path = tmp_path / "coeffs.csv"
    export_coefficients(dec, str(path))
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["v", "m0", "lambda"]
    back = {(int(r[0]), tuple(map(int, r[1:-1]))): float(r[-1]) for r in rows}
    assert len(back) == len(rows)
    assert back == dict(dec.coefficients)


@pytest.mark.parametrize("dimension, L, N, V", [(1, 16.0, 256, 4), (2, 8.0, 32, 2)])
def test_export_bytes_equal_the_row_writer(tmp_path, dimension, L, N, V):
    from oracles import export_coefficients_rows

    spec = vb.make_grid(dimension, L, N)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(4, 12))
    dec = vb.analyze(vb.from_callable(spec, lambda *x: np.exp(-sum(c * c for c in x))),
                     frame, V=V)
    coefficients = _thinned(dec, 3)
    coefficients[(V, (0,) * dimension)] = 1e-300
    dec = _rebuilt(dec, coefficients)
    assert 0.0 in dec.coefficients.values()
    export_coefficients(dec, str(tmp_path / "block.csv"))
    export_coefficients_rows(dec, str(tmp_path / "rows.csv"))
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\r\n") == len(dec.coefficients) + 1


def test_export_keys_its_text_on_every_lattice_side(tmp_path):
    # decompositions of one grid to different finest levels, and a 2-D one of
    # the same N, written in turn in one process, each keep their own keys
    from oracles import export_coefficients_rows

    ladder = vb.make_ladder(4, 12)
    for dimension, V in ((1, 1), (1, 2), (2, 2), (1, 1)):
        spec = vb.make_grid(dimension, 8.0, 32)
        f = vb.from_callable(spec, lambda *x: np.exp(-sum(c * c for c in x)))
        dec = vb.analyze(f, vb.build_resolution_of_unity(spec, ladder), V=V)
        export_coefficients(dec, str(tmp_path / "block.csv"))
        export_coefficients_rows(dec, str(tmp_path / "rows.csv"))
        got = (tmp_path / "block.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\r\n") == len(dec.coefficients) + 1


def test_hand_built_decomposition_accepts_every_cube_of_the_lattice():
    # L = 1: level 0 is one cube (m = 0), level 1 holds m in [-1, 0]
    spec = vb.make_grid(1, 1.0, 16)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(1, 12))
    dec = vb.analyze(vb.from_callable(spec, lambda x: np.exp(-x ** 2)), frame, V=1)
    dec = dataclasses.replace(dec, levels=(np.array([1.0]), np.array([2.0, 3.0])))
    assert dict(dec.coefficients) == {(0, (0,)): 1.0, (1, (-1,)): 2.0, (1, (0,)): 3.0}


def test_levels_are_read_only_lattices_of_their_level(setup2k):
    spec, ladder, frame = setup2k
    dec = vb.analyze(vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2)), frame, V=3)
    assert [lat.shape for lat in dec.levels] == [(16,), (32,), (64,), (128,)]
    with pytest.raises(ValueError):
        dec.levels[1][0] = 1.0
    with pytest.raises(TypeError):
        dec.coefficients[(1, (0,))] = 1.0
    # a writeable lattice passed in is copied, so the caller cannot change it later
    mine = [np.ones(16)]
    built = dataclasses.replace(dec, V=0, levels=mine)
    mine[0][:] = 2.0
    assert not built.levels[0].flags.writeable and (built.levels[0] == 1.0).all()
    with pytest.raises(ParameterError, match=r"level 1 needs a coefficient lattice of shape"):
        dataclasses.replace(dec, V=1, levels=(np.zeros(16), np.zeros(16)))
    with pytest.raises(ParameterError, match=r"V = 2 needs 3 coefficient levels, got 2"):
        dataclasses.replace(dec, V=2, levels=dec.levels[:2])
    # the frame, f's spectrum and real_input come with the coefficients
    with pytest.raises(TypeError):
        AtomicDecomposition(0, 2, 0, 3.0, 1.0, 1.0, (np.ones(16),))
    assert (built.spec, built.ladder) == (frame.spec, frame.ladder)


def test_multi_indices_order():
    assert list(_multi_indices(1, 3)) == [(0,), (1,), (2,), (3,)]
    for K in range(4):
        nested = [(b1, b2) for b1 in range(K + 1) for b2 in range(K + 1 - b1)]
        assert list(_multi_indices(2, K)) == nested


# -- lazy atoms against the eager per-cube oracle --------------------------------


def _zero_key_sample(dec, count=12):
    zeros = sorted(k for k, lam in dec.coefficients.items() if lam == 0.0)
    return zeros[::max(1, len(zeros) // count)]


def _check_against_oracle(f, frame, V):
    dec = vb.analyze(f, frame, V=V)
    coefficients, ref_atoms = analyze_eager(f, frame, V=V)
    assert dec.coefficients == coefficients
    assert dec.atoms == {}
    nonzero = [k for k, lam in dec.coefficients.items() if lam != 0.0]
    assert nonzero
    for key in nonzero + _zero_key_sample(dec):
        got, want = dec.atom(key), ref_atoms[key]
        assert (got.v, got.m) == (want.v, want.m) == key
        assert np.array_equal(got.samples.samples, want.samples.samples), key
    scale = np.max(np.abs(f.samples))
    rec, rec_ref = vb.synthesize(dec), synthesize_atoms(f.spec, coefficients, ref_atoms)
    assert np.max(np.abs(rec.samples - rec_ref.samples)) <= 1e-13 * scale
    # with every other nonzero coefficient zeroed, the dropped cubes must
    # leave the collapsed sum exactly as they leave the atom-by-atom sum
    thinned = _thinned(dec)
    rec = vb.synthesize(_rebuilt(dec, thinned))
    rec_ref = synthesize_atoms(f.spec, thinned, ref_atoms)
    assert np.max(np.abs(rec_ref.samples)) > 0.1 * scale
    assert np.max(np.abs(rec.samples - rec_ref.samples)) <= 1e-13 * scale


def _thinned(dec, step=2):
    """dec's coefficients with every `step`-th nonzero one set to zero."""
    nonzero = [k for k, lam in dec.coefficients.items() if lam != 0.0]
    dropped = set(nonzero[::step])
    return {k: (0.0 if k in dropped else lam) for k, lam in dec.coefficients.items()}


def _rebuilt(dec, coefficients):
    """dec with other coefficients over its own cubes."""
    return _with_coefficients(dec, dec.V, coefficients)


def test_lazy_atoms_match_oracle_1d():
    spec = vb.make_grid(1, 16.0, 256)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(4, 12))
    # a Gaussian leaves deep-level zero coefficients; the tone has none
    for fn in (lambda x: np.exp(-x ** 2 / 2),
               lambda x: np.sin(2 * np.pi * 5 * x / 16) * np.exp(-x ** 2 / 8)):
        _check_against_oracle(vb.from_callable(spec, fn), frame, V=4)


def test_lazy_atoms_match_oracle_2d():
    spec = vb.make_grid(2, 8.0, 32)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(4, 12))
    f = vb.from_callable(spec, lambda x, y: np.exp(-(x ** 2 + 2 * y ** 2) / 2)
                         * (1 + 0.5 * np.cos(3 * x)))
    _check_against_oracle(f, frame, V=2)


@pytest.mark.parametrize("dimension, L, N, octaves, V", [
    (1, 16.0, 512, 5, 5), (2, 8.0, 32, 4, 2),
], ids=["1d", "2d"])
def test_synthesis_matches_the_spatial_sum(dimension, L, N, octaves, V):
    # one inverse FFT of the summed node spectra against per-level inverse
    # FFTs added node after node, on the full and on thinned cube masks
    spec = vb.make_grid(dimension, L, N)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(octaves, 12))
    f = vb.from_callable(spec, lambda *x: np.cos(3 * x[0]) * np.exp(-sum(c * c for c in x) / 2))
    dec = vb.analyze(f, frame, V=V)
    scale = np.max(np.abs(f.samples))
    for step in (None, 2, 3):
        d = dec if step is None else _rebuilt(dec, _thinned(dec, step))
        rec, ref = vb.synthesize(d), synthesize_spatial(d)
        assert not rec.samples.imag.any()   # replaced levels keep real_input
        assert np.max(np.abs(ref.samples)) > 0.1 * scale
        assert np.max(np.abs(rec.samples - ref.samples)) <= 1e-13 * scale, step


def test_atom_rejects_unknown_cube(setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.exp(-x ** 2 / 2))
    dec = vb.analyze(f, frame, V=2)
    with pytest.raises(KeyError):
        dec.atom((3, (0,)))


# -- zero levels, translation, real and complex input --------------------------


@pytest.mark.parametrize("N, octaves", [(2048, 7), (4096, 8)], ids=["N2048", "N4096"])
def test_zero_levels_proven_from_the_spectrum_are_exact(N, octaves):
    # every lattice equals the one from transforming every level's bands,
    # and the Parseval bound that skips a level is at least each lambda of it
    spec = vb.make_grid(1, 16.0, N)
    ladder = vb.make_ladder(octaves, 12)
    frame = vb.build_resolution_of_unity(spec, ladder)
    bank = vb.make_bank(spec, ladder, seed=7)
    skipped = set()
    for name in bank.names():
        f = bank[name]
        dec = vb.analyze(f, frame, V=octaves)
        for v, (got, want) in enumerate(zip(dec.levels, level_lattices_unskipped(f, frame,
                                                                                 octaves))):
            assert np.array_equal(got, want), (name, v)
            ws, _, analysis = atoms._level(frame, v)
            const = dec.C_Phi if v == 0 else dec.C_phi
            bound = atoms._level_bound(spec, dec.f_spectrum, ws, analysis, const)
            lam = const * np.sqrt(atoms._cube_energy(spec, dec.f_spectrum, v, ws, analysis))
            assert bound >= lam.max(), (name, v)
            if bound < atoms.COEFF_FLOOR / 2:
                skipped.add((name, v))
    # the zero levels of the atoms-roundtrip benchmark members
    assert {("gauss_w1", 5), ("gauss_w1", 6), ("gauss_w1", 7), ("tone_k40", 0),
            ("tone_k40", 1), ("tone_k40", 2), ("tone_k40", 6), ("tone_k40", 7),
            ("bandnoise_a", 7)} <= skipped


def _rolled(f, shift):
    axes = tuple(range(f.spec.dimension))
    return vb.GridFunction(f.spec, np.roll(f.samples, (shift,) * len(axes), axis=axes))


@pytest.mark.parametrize("dimension, L, N, octaves", [(1, 16.0, 2048, 7), (2, 8.0, 64, 3)],
                         ids=["1d", "2d"])
def test_translation_by_a_level0_cube_rolls_every_lattice(dimension, L, N, octaves):
    # f rolled by one level-0 cube side, N/L points: level v rolls by 2^v
    # cells, and the reconstruction rolls with f.  In 1-D the top level is
    # only partly nonzero (as for the bank's smoothstep_w1), so the masked
    # synthesis path is covered; the 2-D grid is too coarse for one.  The
    # rolled spectrum rounds at the scale of the largest coefficient, so
    # each level is also allowed 1e-15 of that: the 1-D top level peaks at
    # 8e-11 and moves by 3e-19, 1.3e-18 of the largest lambda.
    spec = vb.make_grid(dimension, L, N)
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(octaves, 12))
    f = vb.from_callable(spec, lambda *x: 0.5 * (np.tanh((x[0] + 1) / 0.25)
                                                 - np.tanh((x[0] - 1.5) / 0.25))
                         * np.exp(-sum(c * c for c in x[1:]) / 2))
    shift = N // int(L)
    dec, moved = vb.analyze(f, frame), vb.analyze(_rolled(f, shift), frame)
    axes = tuple(range(dimension))
    partial, top = 0, max(lat.max() for lat in dec.levels)
    for v, (lat, got) in enumerate(zip(dec.levels, moved.levels)):
        want = np.roll(lat, (2 ** v,) * dimension, axis=axes)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max() + 1e-15 * top, v
        differ = (got == 0.0) != (want == 0.0)
        assert np.all(np.maximum(got, want)[differ] < 1e-13), v
        partial += bool(lat.any() and not lat.all())
    assert partial or dimension == 2, "no level is only partly nonzero"
    rec, rec_moved = vb.synthesize(dec), vb.synthesize(moved)
    scale = np.max(np.abs(f.samples))
    assert np.max(np.abs(rec_moved.samples - _rolled(rec, shift).samples)) <= 1e-13 * scale


def test_real_input_gives_a_real_reconstruction_and_complex_input_is_linear(setup2k):
    spec, ladder, frame = setup2k
    f = vb.from_callable(spec, lambda x: np.cos(4 * x) * np.exp(-x ** 2 / 2))
    g = vb.from_callable(spec, lambda x: np.exp(-(x - 1) ** 2 / 0.5) - 0.5 * np.exp(-x ** 2))
    rec_f = vb.synthesize(vb.analyze(f, frame, V=7))
    rec_g = vb.synthesize(vb.analyze(g, frame, V=7))
    assert not rec_f.samples.imag.any() and not rec_g.samples.imag.any()
    both = vb.GridFunction(spec, f.samples + 1j * g.samples)
    dec = vb.analyze(both, frame, V=7)
    assert not dec.real_input
    rec = vb.synthesize(dec)
    assert np.abs(rec.samples.imag).max() > 0.1
    want = rec_f.samples + 1j * rec_g.samples
    assert np.max(np.abs(rec.samples - want)) <= 1e-13 * np.max(np.abs(both.samples))


def _five_point_derivative(samples, beta, h):
    """D^beta by the periodic five-point central difference, applied
    beta[axis] times along each axis."""
    for axis, order in enumerate(beta):
        for _ in range(order):
            samples = (8 * (np.roll(samples, -1, axis) - np.roll(samples, 1, axis))
                       - (np.roll(samples, -2, axis) - np.roll(samples, 2, axis))) / (12 * h)
    return samples


def _gauss_wave_derivative(c, a, w, m):
    """d^m/dc^m of cos(w c) exp(-a c^2) in closed form: exp(-a c^2 + i w c) is
    exp(-a u^2 - w^2 / 4a) at u = c - i w / 2a, and d^m/du^m exp(-a u^2) is
    (-sqrt(a))^m H_m(sqrt(a) u) exp(-a u^2), H_m the Hermite polynomial."""
    u = c - 1j * w / (2 * a)
    return np.real((-np.sqrt(a)) ** m * hermval(np.sqrt(a) * u, [0] * m + [1])
                   * np.exp(-a * u * u - w * w / (4 * a)))


@pytest.mark.parametrize("dimension, L, N", [(1, 16.0, 256), (1, 16.0, 2048), (2, 8.0, 64)])
def test_kernel_constant_matches_finite_differences_and_closed_forms(dimension, L, N):
    spec = vb.make_grid(dimension, L, N)
    h = spec.spacing
    frame = vb.build_resolution_of_unity(spec, vb.make_ladder(4, 12))
    for K in range(4):
        betas = [b for b in itertools.product(range(K + 1), repeat=dimension) if sum(b) <= K]
        # phi_1 and Phi are band-limited to |xi| < 2, where the stencil's
        # multiplier is xi (1 - (xi h)^4 / 30 + ...): K <= 3 steps stay
        # within (2h)^4 / 10
        for kernel in (vb.synthesize_phi_t(frame, 1.0), vb.synthesize_Phi(frame)):
            want = max(np.abs(_five_point_derivative(kernel.samples, b, h)).max() for b in betas)
            assert atoms.measured_kernel_constant(kernel, K) == pytest.approx(
                want, rel=(2 * h) ** 4 / 10), (kernel.tag, K)
        # two anisotropic Gaussian waves whose largest derivative is along the
        # last and along the first axis (in 2-D at K = 3 the first-axis wave
        # peaks at beta = (3, 0)); on the grid they are periodized, and
        # exp(-x^2) is 1e-7 at the edge of the 2-D box
        for ax in range(dimension):
            wave = vb.from_callable(spec, lambda *x: np.cos(3 * x[ax]) * np.exp(
                -sum((k + 1) * c * c for k, c in enumerate(x))))
            want = max(np.abs(functools.reduce(np.multiply, [
                _gauss_wave_derivative(c, k + 1, 3.0 * (k == ax), b[k])
                for k, c in enumerate(spec.axes())])).max() for b in betas)
            assert atoms.measured_kernel_constant(wave, K) == pytest.approx(want, rel=1e-6), (ax, K)
