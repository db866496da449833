"""Unit tests for the conv/attention/pyramid/encoder building blocks."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trisal import blocks as B
from trisal import tensor as T
from trisal.errors import ConfigError
from trisal.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def rand_input(*shape, seed=0):
    return Tensor(rng(seed).uniform(-1.0, 1.0, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# BConv


def test_bconv_output_nonnegative():
    blk = B.BConv(3, 8, rng(1))
    out = blk(rand_input(2, 3, 8, 8, seed=2))
    assert out.data.min() >= 0.0


def test_bconv_same_padding_shape():
    blk = B.BConv(3, 5, rng(3))
    out = blk(rand_input(2, 3, 9, 7, seed=4))
    assert out.shape == (2, 5, 9, 7)


def test_bconv_dilated_same_padding_shape():
    blk = B.BConv(2, 2, rng(5), k=3, dilation=4)
    out = blk(rand_input(1, 2, 16, 16, seed=6))
    assert out.shape == (1, 2, 16, 16)


def test_bconv_gradient_eval_mode():
    blk = B.BConv(2, 3, rng(7)).eval()
    blk.bn.running_mean.data[:] = rng(8).uniform(-0.1, 0.1, 3)
    blk.bn.running_var.data[:] = rng(9).uniform(0.5, 1.5, 3)
    x = rand_input(1, 2, 4, 4, seed=10)
    v = Tensor(rng(11).uniform(0.1, 1.0, (1, 3, 4, 4)))
    # A positive-weighted sum keeps the objective away from relu kinks only if
    # outputs stay strictly one-signed; shift the input to keep pre-relu clear.
    x.data += 2.0
    assert T.grad_check(lambda t: T.sum_all(T.mul(blk(t), v)), x) <= 1e-4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([1, 3]),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_convbn_train_output_ignores_conv_bias(b, c_in, c_out, h, w, k, stride, dilation, seed):
    # Why ConvBN's conv has no bias: BN subtracts the batch mean of each channel.
    assume(b * ((h - 1) // stride + 1) * ((w - 1) // stride + 1) >= 2)  # train-mode BN needs 2 values
    r = rng(seed)
    blk = B.ConvBN(c_in, c_out, r, k=k, stride=stride, dilation=dilation)
    blk.bn.gamma.data[:] = r.uniform(0.5, 2.0, c_out)
    blk.bn.beta.data[:] = r.normal(size=c_out)
    conv = blk.conv
    x = Tensor(r.normal(size=(b, c_in, h, w)))
    plain = blk(x)
    bias = Tensor(r.normal(size=c_out))
    biased = T.batchnorm2d(T.conv2d(x, conv.weight, bias, conv.stride, conv.dilation), *blk.bn.args())
    npt.assert_allclose(biased.data, plain.data, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# ChannelAttention


def test_channel_attention_half_scaling_with_zero_w2():
    blk = B.ChannelAttention(8, 4, rng(12))
    blk.w2.data[:] = 0.0
    blk.b2.data[:] = 0.0
    x = rand_input(2, 8, 4, 4, seed=13)
    npt.assert_allclose(blk(x).data, x.data / 2.0, atol=1e-12)


def test_channel_attention_contracts_magnitude():
    blk = B.ChannelAttention(8, 4, rng(14))
    for seed in range(5):
        x = rand_input(2, 8, 4, 4, seed=20 + seed)
        y = blk(x)
        assert np.all(np.abs(y.data) <= np.abs(x.data) + 1e-12)


def test_channel_attention_ratio_divisibility():
    with pytest.raises(ConfigError):
        B.ChannelAttention(6, 4, rng(15))


def test_channel_attention_equal_channels_equal_scales():
    # With channel-symmetric weights, equal channels must get equal scales.
    blk = B.ChannelAttention(4, 4, rng(16))
    blk.w1.data[:] = blk.w1.data[:, :1]
    blk.w2.data[:] = blk.w2.data[:1, :]
    blk.b2.data[:] = 0.3
    x = Tensor(np.tile(rng(17).uniform(0.1, 1, (2, 1, 4, 4)), (1, 4, 1, 1)))
    y = blk(x)
    s = y.data / x.data
    npt.assert_allclose(s, np.broadcast_to(s[:, :1], s.shape), atol=1e-12)


def test_channel_attention_permutation_equivariance():
    blk = B.ChannelAttention(4, 2, rng(40))
    x = rand_input(2, 4, 3, 3, seed=41)
    base = blk(x).data
    perm = np.array([2, 0, 3, 1])
    blk2 = B.ChannelAttention(4, 2, rng(40))
    blk2.w1.data[:] = blk.w1.data[:, perm]
    blk2.w2.data[:] = blk.w2.data[perm, :]
    blk2.b2.data[:] = blk.b2.data[perm]
    y2 = blk2(Tensor(x.data[:, perm]))
    npt.assert_allclose(y2.data, base[:, perm], atol=1e-12)


def test_channel_attention_gradient():
    blk = B.ChannelAttention(4, 2, rng(18))
    x = rand_input(1, 4, 3, 3, seed=19)
    v = Tensor(rng(20).uniform(-1, 1, (1, 4, 3, 3)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(blk(t), v)), x) <= 1e-4


# ---------------------------------------------------------------------------
# ASPP


def test_aspp_preserves_shape():
    blk = B.ASPP(8, rng(21))
    out = blk(rand_input(2, 8, 4, 4, seed=22))
    assert out.shape == (2, 8, 4, 4)


def test_aspp_batch_one_tiny_map():
    blk = B.ASPP(4, rng(23))
    out = blk(rand_input(1, 4, 2, 2, seed=24))
    assert out.shape == (1, 4, 2, 2)
    assert np.all(np.isfinite(out.data))


def test_aspp_gradient_flow_to_all_parameters():
    blk = B.ASPP(4, rng(25))
    x = rand_input(2, 4, 4, 4, seed=26)
    with T.Tape():
        T.backward(T.sum_all(T.mul(blk(x), blk(x))))
    for name, p in blk.named_parameters():
        assert np.all(np.isfinite(p.grad)), name


# ---------------------------------------------------------------------------
# Encoder


def test_encoder_level_shapes_64():
    enc = B.Encoder(rng(27), width=8, cp_width=8)
    levels = enc(rand_input(1, 3, 64, 64, seed=28))
    sizes = [lv.shape[2] for lv in levels]
    assert sizes == [32, 16, 8, 4, 2]
    assert all(lv.shape[1] == 8 for lv in levels)


def test_encoder_rejects_indivisible_input():
    enc = B.Encoder(rng(29), width=8, cp_width=8)
    with pytest.raises(ConfigError, match="32"):
        enc(rand_input(1, 3, 48, 48, seed=30))


def test_encoder_gradients_finite_everywhere():
    enc = B.Encoder(rng(31), width=4, cp_width=4)
    x = rand_input(2, 3, 32, 32, seed=32)
    with T.Tape():
        levels = enc(x)
        loss = levels[0]
        total = T.sum_all(levels[0])
        for lv in levels[1:]:
            total = T.add(total, T.sum_all(lv))
        T.backward(total)
    for name, p in enc.named_parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name


def test_independent_streams_do_not_share_parameters():
    g = rng(33)
    enc_a = B.Encoder(g, width=4, cp_width=4)
    enc_b = B.Encoder(g, width=4, cp_width=4)
    x = rand_input(1, 3, 32, 32, seed=34)
    before = [lv.data.copy() for lv in enc_b.eval()(x)]
    for p in enc_a.parameters():
        p.data += 1.0
    after = [lv.data.copy() for lv in enc_b(x)]
    for b0, a0 in zip(before, after):
        npt.assert_array_equal(b0, a0)


def test_same_seed_identical_parameters():
    e1 = B.Encoder(rng(35), width=4, cp_width=4)
    e2 = B.Encoder(rng(35), width=4, cp_width=4)
    s1, s2 = e1.state_dict(), e2.state_dict()
    assert s1.keys() == s2.keys()
    for k in s1:
        assert s1[k].data.tobytes() == s2[k].data.tobytes(), k


# ---------------------------------------------------------------------------
# Module mechanics


def test_state_dict_roundtrip():
    blk = B.BConv(2, 3, rng(36))
    state = {k: Tensor(v.data.copy()) for k, v in blk.state_dict().items()}
    for p in blk.parameters():
        p.data += 0.5
    blk.load_state_dict(state)
    for k, v in blk.state_dict().items():
        npt.assert_array_equal(v.data, state[k].data)


def test_state_dict_rejects_mismatched_keys():
    blk = B.BConv(2, 3, rng(37))
    state = blk.state_dict()
    state.pop(next(iter(state)))
    with pytest.raises(ConfigError):
        blk.load_state_dict(state)


def test_train_eval_propagates():
    enc = B.Encoder(rng(38), width=4, cp_width=4)
    enc.eval()
    assert not enc.stages[0][0].conv1.bn.training
    enc.train()
    assert enc.aspp.merge.bn.training


def test_batchnorm_buffers_tracked():
    blk = B.BConv(2, 3, rng(39))
    names = dict(blk.named_buffers())
    assert "bn.running_mean" in names and "bn.running_var" in names
    params = dict(blk.named_parameters())
    assert "bn.running_mean" not in params
