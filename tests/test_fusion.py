"""Unit tests for the attention and refinement fusion blocks."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisal import fusion as F
from trisal import tensor as T
from trisal.errors import ConfigError, ShapeError
from trisal.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_input(*shape, seed=0):
    return Tensor(rng(seed).uniform(-1.0, 1.0, size=shape), requires_grad=True)


def trip(ch=8, hw=4, b=1, seed=0):
    return (
        rand_input(b, ch, hw, hw, seed=seed),
        rand_input(b, ch, hw, hw, seed=seed + 1),
        rand_input(b, ch, hw, hw, seed=seed + 2),
    )


# ---------------------------------------------------------------------------
# cross-modal attention


def test_attention_preserves_shapes():
    xr, xd, xf = trip(ch=8, hw=4, seed=1)
    mam = F.CrossModalAttention(8, 2, rng(2))
    yr, (yd, yf) = mam(xr, [xd, xf])
    for y in (yr, yd, yf):
        assert y.shape == (1, 8, 4, 4)


def test_attention_rows_stochastic():
    pair = F.PairAttention(8, rng(3))
    for seed in range(10):
        xm = rand_input(2, 8, 4, 4, seed=100 + seed)
        xa = rand_input(2, 8, 4, 4, seed=200 + seed)
        a = pair.affinity(xm, xa).data
        npt.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-9)
        assert a.min() >= 0.0 and a.max() <= 1.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_affinity_ignores_key_bias(b, c, h, w, seed):
    # Why the key convs have no bias: it adds one constant to each softmax row.
    r = rng(seed)
    query = Tensor(r.normal(size=(b, c, h, w)))
    key = r.normal(size=(b, c, h, w))
    shift = r.normal(size=(1, c, 1, 1))
    plain = F._affinity(query, Tensor(key)).data
    npt.assert_allclose(F._affinity(query, Tensor(key + shift)).data, plain, rtol=0, atol=1e-12)


def test_attention_zero_value_weights_identity_on_aux():
    xr, xd, xf = trip(ch=8, hw=4, seed=4)
    mam = F.CrossModalAttention(8, 2, rng(5))
    for pair in mam.pairs:
        for conv in (pair.value_main, pair.value_aux, pair.out_main, pair.out_aux):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
    _, (yd, yf) = mam(xr, [xd, xf])
    npt.assert_array_equal(yd.data, xd.data)
    npt.assert_array_equal(yf.data, xf.data)


def test_attention_shape_mismatch():
    mam = F.CrossModalAttention(8, 2, rng(6))
    xr = rand_input(1, 8, 4, 4, seed=7)
    xd = rand_input(1, 8, 2, 2, seed=8)
    with pytest.raises(ShapeError):
        mam(xr, [xd, xd])


def test_attention_aux_count_checked():
    mam = F.CrossModalAttention(8, 2, rng(9))
    xr = rand_input(1, 8, 4, 4, seed=10)
    with pytest.raises(ConfigError):
        mam(xr, [xr])


def test_attention_odd_channels_rejected():
    with pytest.raises(ConfigError):
        F.PairAttention(7, rng(11))


def test_attention_full_block_gradient():
    mam = F.CrossModalAttention(4, 2, rng(12))
    xr, xd, xf = trip(ch=4, hw=3, seed=13)
    v = Tensor(rng(14).uniform(-1, 1, (1, 4, 3, 3)))

    def run(t, slot):
        ins = [xr, xd, xf]
        ins[slot] = t
        yr, (yd, yf) = mam(ins[0], ins[1:])
        s = T.sum_all(T.mul(yr, v))
        s = T.add(s, T.sum_all(T.mul(yd, v)))
        return T.add(s, T.sum_all(T.mul(yf, v)))

    assert T.grad_check(lambda t: run(t, 0), xr) <= 1e-4
    assert T.grad_check(lambda t: run(t, 1), xd) <= 1e-4
    assert T.grad_check(lambda t: run(t, 2), xf) <= 1e-4


def test_self_attention_shape_and_gradient():
    blk = F.SelfAttention(4, rng(15))
    x = rand_input(1, 4, 3, 3, seed=16)
    assert blk(x).shape == (1, 4, 3, 3)
    v = Tensor(rng(17).uniform(-1, 1, (1, 4, 3, 3)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(blk(t), v)), x) <= 1e-4


def test_self_attention_zero_out_conv_is_identity():
    blk = F.SelfAttention(4, rng(18))
    blk.out.weight.data[:] = 0.0
    x = rand_input(2, 4, 3, 3, seed=19)
    npt.assert_array_equal(blk(x).data, x.data)


# ---------------------------------------------------------------------------
# refinement fusion


def test_refinement_preserves_shape():
    xr, xd, xf = trip(ch=8, hw=4, b=2, seed=20)
    rfm = F.RefinementFusion(8, 2, rng(21))
    assert rfm(xr, [xd, xf]).shape == (2, 8, 4, 4)


def test_refinement_zero_aux_main_branch_reduces():
    # With zero auxiliary maps, the adapted auxiliaries vanish (fresh blocks:
    # zero conv bias, zero batchnorm shift), so the products drop out and the
    # pre-gate main branch is exactly the merge block applied to the adapted
    # main features.
    xr = rand_input(2, 8, 4, 4, seed=22)
    zero = Tensor(np.zeros((2, 8, 4, 4)))
    rfm = F.RefinementFusion(8, 2, rng(23))
    got = {}
    rfm(xr, [zero, zero], collect=got)
    for z in got["adapted_aux"]:
        npt.assert_array_equal(z.data, 0.0)
    expected = rfm.merge_main(rfm.adapt_main(xr))
    npt.assert_allclose(got["main_pre_gate"].data, expected.data, atol=1e-12)


def test_refinement_single_aux_matches_manual_composition():
    xr = rand_input(1, 8, 4, 4, seed=24)
    xf = rand_input(1, 8, 4, 4, seed=25)
    rfm = F.RefinementFusion(8, 1, rng(26))
    got = {}
    out = rfm(xr, [xf], collect=got)
    zr = rfm.adapt_main(xr)
    zf = rfm.adapt_aux[0](xf)
    main = rfm.gate_main(rfm.merge_main(T.add(zr, T.mul(zr, zf))))
    npt.assert_allclose(got["main_gated"].data, main.data, atol=1e-12)
    aux = rfm.gate_aux[0](rfm.merge_aux[0](T.add(zf, T.mul(zf, zr))))
    manual = rfm.fuse_final(T.concat_channels([main, rfm.fuse_aux(aux)]))
    npt.assert_allclose(out.data, manual.data, atol=1e-12)


def test_refinement_flat_concat_shape_matches_full():
    xr, xd, xf = trip(ch=8, hw=4, seed=27)
    full = F.RefinementFusion(8, 2, rng(28), variant="full")
    flat = F.RefinementFusion(8, 2, rng(28), variant="flat_concat")
    assert flat(xr, [xd, xf]).shape == full(xr, [xd, xf]).shape


def test_refinement_unknown_variant():
    with pytest.raises(ConfigError):
        F.RefinementFusion(8, 2, rng(29), variant="cascade")


def test_refinement_aux_count_checked():
    rfm = F.RefinementFusion(8, 2, rng(30))
    xr = rand_input(1, 8, 4, 4, seed=31)
    with pytest.raises(ConfigError):
        rfm(xr, [xr])


@pytest.mark.parametrize("variant,n_aux", [("full", 2), ("full", 1), ("flat_concat", 2)])
def test_refinement_gradients(variant, n_aux):
    rfm = F.RefinementFusion(4, n_aux, rng(32), variant=variant)
    xr = rand_input(1, 4, 3, 3, seed=33)
    auxes = [rand_input(1, 4, 3, 3, seed=34 + i) for i in range(n_aux)]
    v = Tensor(rng(40).uniform(-1, 1, (1, 4, 3, 3)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(rfm(t, auxes), v)), xr) <= 1e-4
    assert T.grad_check(lambda t: T.sum_all(T.mul(rfm(xr, [t] + auxes[1:]), v)), auxes[0]) <= 1e-4


def test_refinement_symmetric_aux_swap_keeps_main_branch():
    # Tie the two auxiliary adapters; the main branch sums products over the
    # auxiliaries, so exchanging depth and flow must leave it unchanged.
    xr, xd, xf = trip(ch=8, hw=4, seed=41)
    rfm = F.RefinementFusion(8, 2, rng(42))
    src = {k: Tensor(v.data.copy()) for k, v in rfm.adapt_aux[0].state_dict().items()}
    rfm.adapt_aux[1].load_state_dict(src)
    a, b = {}, {}
    rfm(xr, [xd, xf], collect=a)
    rfm(xr, [xf, xd], collect=b)
    npt.assert_allclose(a["main_gated"].data, b["main_gated"].data, atol=1e-12)


def test_every_fusion_parameter_gets_gradient():
    mam = F.CrossModalAttention(8, 2, rng(43))
    rfm = F.RefinementFusion(8, 2, rng(44))
    xr, xd, xf = trip(ch=8, hw=4, b=2, seed=45)
    with T.Tape():
        yr, (yd, yf) = mam(xr, [xd, xf])
        out = rfm(yr, [yd, yf])
        T.sum_all(T.mul(out, out)).backward()
    for mod, label in ((mam, "attention"), (rfm, "refinement")):
        for name, p in mod.named_parameters():
            assert p.grad is not None and np.any(p.grad != 0.0), f"{label}:{name}"


# ---------------------------------------------------------------------------
# plain concat baseline


def test_concat_fuse_shape_and_gradient():
    blk = F.ConcatFuse(4, 3, rng(46))
    xr, xd, xf = trip(ch=4, hw=3, seed=47)
    out = blk(xr, [xd, xf])
    assert out.shape == (1, 4, 3, 3)
    v = Tensor(rng(48).uniform(-1, 1, (1, 4, 3, 3)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(blk(t, [xd, xf]), v)), xr) <= 1e-4
