"""Object/template generators and the uniform noise model."""

import numpy as np
import pytest

from mfcorr import (DomainError, NoiseSpec, ObjectSpec, Signal, TemplateSpec,
                    add_noise, gen_object, gen_template, noise_rng)
from mfcorr.generators import noisy_rows


def test_object_defaults_grid():
    spec = ObjectSpec()
    obj = gen_object(spec)
    assert len(obj) == 640
    assert obj.dx == pytest.approx(0.01)
    assert obj.x0 == 0.0
    assert obj.x[-1] == pytest.approx(6.39)


def test_object_peak_values():
    spec = ObjectSpec()
    obj = gen_object(spec)
    # x = 4.5 and 1.8 are exact grid points; the other Gaussian's tail there
    # is ~exp(-81) so the peak heights are clean
    i_p = int(round((spec.x_p - obj.x0) / obj.dx))
    i_s = int(round((spec.x_s - obj.x0) / obj.dx))
    assert obj.samples[i_p] == pytest.approx(2.0, abs=1e-12)
    assert obj.samples[i_s] == pytest.approx(1.0, abs=1e-12)
    assert obj.samples.max() == obj.samples[i_p]


def test_object_local_symmetry():
    spec = ObjectSpec()
    obj = gen_object(spec)
    i_p = int(round((spec.x_p - obj.x0) / obj.dx))
    for off in (1, 5, 20):
        assert obj.samples[i_p - off] == pytest.approx(obj.samples[i_p + off],
                                                       rel=1e-9)


def test_object_spec_validation():
    with pytest.raises(DomainError):
        ObjectSpec(h_p=1.0, h_s=2.0)        # secondary taller than principal
    with pytest.raises(DomainError):
        ObjectSpec(sigma_p=0.0)
    with pytest.raises(DomainError):
        ObjectSpec(x_p=1.8, x_s=1.8)        # coincident peaks
    with pytest.raises(DomainError):
        ObjectSpec(x_p=6.39)                # no 4-sigma margin to the edge


def test_template_shape():
    tpl = gen_template(TemplateSpec(width=1.2, amplitude=2.0), dx=0.01)
    assert len(tpl) == 121
    assert tpl.samples[0] == 0.0
    assert tpl.samples[-1] == 0.0
    assert tpl.samples[60] == pytest.approx(2.0)   # apex at the midpoint
    assert tpl.samples.max() == tpl.samples[60]
    np.testing.assert_allclose(tpl.samples, tpl.samples[::-1], atol=1e-12)


def test_template_integral():
    # half-sine area = 2*A*W/pi; Riemann sum converges to it
    for n_per in (200, 1000):
        dx = 1.2 / n_per
        tpl = gen_template(TemplateSpec(width=1.2, amplitude=2.0), dx=dx)
        area = dx * tpl.samples.sum()
        assert area == pytest.approx(2 * 2.0 * 1.2 / np.pi, rel=0.01)


def test_template_too_narrow():
    with pytest.raises(DomainError):
        gen_template(TemplateSpec(width=0.01, amplitude=1.0), dx=0.01)


@pytest.mark.parametrize("dx", [0.0, -0.01, float("nan"), 1e-320])
def test_template_spacing_without_finite_step_count(dx):
    # 1.2 / 1e-320 overflows to inf, which round() cannot take
    with pytest.raises(DomainError, match="dx must be positive"):
        gen_template(TemplateSpec(width=1.2, amplitude=1.0), dx=dx)


def test_template_spec_validation():
    with pytest.raises(DomainError):
        TemplateSpec(width=-1.0)
    with pytest.raises(DomainError):
        TemplateSpec(amplitude=0.0)


def test_noise_level_zero_is_identity():
    spec = ObjectSpec()
    obj = gen_object(spec)
    noisy = add_noise(obj, NoiseSpec(0, seed=42))
    np.testing.assert_array_equal(noisy.samples, obj.samples)


def test_noise_determinism():
    obj = gen_object(ObjectSpec())
    a = add_noise(obj, NoiseSpec(7, seed=42, realization=3))
    b = add_noise(obj, NoiseSpec(7, seed=42, realization=3))
    np.testing.assert_array_equal(a.samples, b.samples)
    c = add_noise(obj, NoiseSpec(7, seed=42, realization=4))
    assert not np.array_equal(a.samples, c.samples)
    d = add_noise(obj, NoiseSpec(8, seed=42, realization=3))
    assert not np.array_equal(a.samples, d.samples)


def test_noise_amplitude_rule():
    assert NoiseSpec(20, seed=0).amplitude == pytest.approx(1.0)
    assert NoiseSpec(20, seed=0, multiplier=2.0).amplitude == pytest.approx(2.0)
    assert NoiseSpec(5, seed=0).amplitude == pytest.approx(0.25)
    assert NoiseSpec(0, seed=0).amplitude == 0.0


def test_noise_moments():
    # n(x) = L(u - 0.5): mean 0, variance L^2/12, checked within 3 sigma
    n_draws = 200_000
    level, mult = 10, 1.0
    obj = Signal(np.zeros(n_draws), x0=0.0, dx=1.0)
    noisy = add_noise(obj, NoiseSpec(level, seed=99, multiplier=mult))
    amp = mult * level / 20.0
    diffs = noisy.samples
    var = amp * amp / 12.0
    se_mean = np.sqrt(var / n_draws)
    assert abs(diffs.mean()) < 3 * se_mean
    # variance of the sample variance for uniform: (var^2)*(2/(n-1)) approx
    se_var = var * np.sqrt(2.0 / (n_draws - 1))
    assert abs(diffs.var() - var) < 3 * se_var
    assert np.abs(diffs).max() <= amp / 2.0 + 1e-15


def test_noise_bounds():
    obj = gen_object(ObjectSpec())
    noisy = add_noise(obj, NoiseSpec(20, seed=5))
    assert np.abs(noisy.samples - obj.samples).max() <= 0.5


def test_noise_level_validation():
    with pytest.raises(DomainError):
        NoiseSpec(-1, seed=0)
    with pytest.raises(DomainError):
        NoiseSpec(21, seed=0)


def test_rng_seed_masking():
    # seeds beyond 64 bits are folded rather than rejected
    r1 = noise_rng(NoiseSpec(3, seed=(1 << 64) + 5))
    r2 = noise_rng(NoiseSpec(3, seed=5))
    assert r1.uniform() == r2.uniform()


@pytest.mark.parametrize("level", [0, 1, 20])
@pytest.mark.parametrize("multiplier", [0.0, 1.0, 2.5])
def test_noise_block_equals_stacked_cells(level, multiplier):
    # a block of realizations 3..9 holds, row by row, the bytes of each cell's add_noise
    # and of the noise formula drawn from default_rng on the cell's SeedSequence
    obj = gen_object(ObjectSpec())
    block = noisy_rows(obj.samples, NoiseSpec(level, seed=11, realization=3,
                                              multiplier=multiplier), 7)
    cells = [NoiseSpec(level, seed=11, realization=r, multiplier=multiplier)
             for r in range(3, 10)]
    stacked = np.stack([add_noise(obj, noise).samples for noise in cells])
    assert block.tobytes() == stacked.tobytes()
    drawn = np.stack([np.random.default_rng(np.random.SeedSequence((11, level, noise.realization)))
                      .random(obj.samples.size) for noise in cells])
    formula = obj.samples + cells[0].amplitude * (drawn - 0.5)
    assert block.tobytes() == formula.tobytes()


def test_noise_block_refuses_non_finite_samples():
    # an amplitude that overflows to inf, as a multiplier near the float limit gives at level 20
    obj = gen_object(ObjectSpec())
    with pytest.raises(DomainError, match="non-finite"):
        noisy_rows(obj.samples, NoiseSpec(20, multiplier=1.7e308), 2)
