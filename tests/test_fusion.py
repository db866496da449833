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


def record(block):
    """The list to which ``block`` from now on appends each output it returns."""
    outputs = []
    forward = block.forward

    def recording(*args):
        outputs.append(forward(*args))
        return outputs[-1]

    block.forward = recording
    return outputs


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


def mixed_by(attn, value):
    """``out[b, c, i] = sum_j attn[b, i, j] * value[b, c, j]`` over flattened positions."""
    b, c, h, w = value.shape
    return Tensor(np.einsum("bij,bcj->bci", attn, value.reshape(b, c, h * w)).reshape(b, c, h, w))


def test_pair_attention_mixes_values_as_the_einsum_oracle():
    pair = F.PairAttention(8, rng(50))
    xm, xa = rand_input(2, 8, 4, 3, seed=51), rand_input(2, 8, 4, 3, seed=52)
    got_main, got_aux = pair(xm, xa)
    attn = pair.affinity(xm, xa).data
    ref_main = pair.out_main(mixed_by(attn, pair.value_main(xm).data))
    ref_aux = pair.out_aux(mixed_by(attn, pair.value_aux(xa).data))
    npt.assert_allclose(got_main.data, ref_main.data, rtol=0, atol=1e-12)
    npt.assert_allclose(got_aux.data, ref_aux.data, rtol=0, atol=1e-12)


def test_self_attention_mixes_values_as_the_einsum_oracle():
    blk = F.SelfAttention(8, rng(53))
    x = rand_input(2, 8, 3, 5, seed=54)
    attn = F._affinity(blk.query(x), blk.key(x)).data
    ref = x.data + blk.out(mixed_by(attn, blk.value(x).data)).data
    npt.assert_allclose(blk(x).data, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("block,n_inputs", [(F.PairAttention, 2), (F.SelfAttention, 1)], ids=["pair", "self"])
def test_attention_transposes_only_the_query_and_the_affinity(block, n_inputs):
    xs = [rand_input(1, 8, 4, 4, seed=55 + i) for i in range(n_inputs)]
    with T.Tape() as tape:
        block(8, rng(57))(*xs)
    assert tape.op_counts()["transpose_last2"] == 2


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
    adapted_aux = [record(adapt) for adapt in rfm.adapt_aux]
    main_pre_gate = record(rfm.merge_main)
    rfm(xr, [zero, zero])
    for z in adapted_aux:
        npt.assert_array_equal(z[0].data, 0.0)
    expected = rfm.merge_main(rfm.adapt_main(xr))
    npt.assert_allclose(main_pre_gate[0].data, expected.data, atol=1e-12)


def test_refinement_single_aux_matches_manual_composition():
    xr = rand_input(1, 8, 4, 4, seed=24)
    xf = rand_input(1, 8, 4, 4, seed=25)
    rfm = F.RefinementFusion(8, 1, rng(26))
    main_gated = record(rfm.gate_main)
    out = rfm(xr, [xf])
    zr = rfm.adapt_main(xr)
    zf = rfm.adapt_aux[0](xf)
    main = rfm.gate_main(rfm.merge_main(T.add(zr, T.mul(zr, zf))))
    npt.assert_allclose(main_gated[0].data, main.data, atol=1e-12)
    aux = rfm.gate_aux[0](rfm.merge_aux[0](T.add(zf, T.mul(zf, zr))))
    manual = rfm.fuse_final(T.concat_channels([main, rfm.fuse_aux(aux)]))
    npt.assert_allclose(out.data, manual.data, atol=1e-12)


@pytest.mark.parametrize("n_aux", [1, 2])
def test_refinement_records_one_product_per_auxiliary(n_aux):
    # one main-by-auxiliary product each, shared by both branches, plus one per channel gate
    xr, *auxes = trip(ch=8, hw=4, seed=29)
    rfm = F.RefinementFusion(8, n_aux, rng(30))
    with T.Tape() as tape:
        rfm(xr, auxes[:n_aux])
    assert tape.op_counts()["mul"] == 2 * n_aux + 1


def test_refinement_flat_concat_shape_matches_full():
    xr, xd, xf = trip(ch=8, hw=4, seed=27)
    full = F.RefinementFusion(8, 2, rng(28))
    flat = F.FlatRefinementFusion(8, 2, rng(28))
    assert flat(xr, [xd, xf]).shape == full(xr, [xd, xf]).shape


@pytest.mark.parametrize("variant,n_aux", [("full", 2), ("full", 1), ("flat_concat", 2)])
def test_refinement_gradients(variant, n_aux):
    fusion = {"full": F.RefinementFusion, "flat_concat": F.FlatRefinementFusion}[variant]
    rfm = fusion(4, n_aux, rng(32))
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
    src = rfm.adapt_aux[0].state_dict()
    for name, t in rfm.adapt_aux[1].state_dict().items():
        t.data[...] = src[name].data
    main_gated = record(rfm.gate_main)
    rfm(xr, [xd, xf])
    rfm(xr, [xf, xd])
    npt.assert_allclose(main_gated[0].data, main_gated[1].data, atol=1e-12)


def test_every_fusion_parameter_gets_gradient():
    mam = F.CrossModalAttention(8, 2, rng(43))
    rfm = F.RefinementFusion(8, 2, rng(44))
    xr, xd, xf = trip(ch=8, hw=4, b=2, seed=45)
    with T.Tape():
        yr, (yd, yf) = mam(xr, [xd, xf])
        out = rfm(yr, [yd, yf])
        T.backward(T.sum_all(T.mul(out, out)))
    for mod, label in ((mam, "attention"), (rfm, "refinement")):
        for name, p in mod.named_parameters():
            assert p.grad is not None and np.any(p.grad != 0.0), f"{label}:{name}"


# ---------------------------------------------------------------------------
# plain concat baseline


def test_concat_fuse_shape_and_gradient():
    blk = F.ConcatFuse(4, 2, rng(46))
    xr, xd, xf = trip(ch=4, hw=3, seed=47)
    out = blk(xr, [xd, xf])
    assert out.shape == (1, 4, 3, 3)
    v = Tensor(rng(48).uniform(-1, 1, (1, 4, 3, 3)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(blk(t, [xd, xf]), v)), xr) <= 1e-4


# ---------------------------------------------------------------------------
# the contract every stage block shares


STAGE_BLOCKS = [F.CrossModalAttention, F.StreamSelfAttention, F.RefinementFusion, F.FlatRefinementFusion, F.ConcatFuse]


@pytest.mark.parametrize("block", STAGE_BLOCKS, ids=lambda b: b.__name__)
def test_stage_block_contract(block):
    blk = block(8, 2, rng(6))
    xr = rand_input(1, 8, 4, 4, seed=7)
    small = rand_input(1, 8, 2, 2, seed=8)
    with pytest.raises(ConfigError):
        blk(xr, [xr])
    with pytest.raises(ConfigError):
        blk(xr, [xr, xr, xr])
    with pytest.raises(ShapeError):
        blk(xr, [small, small])
    with pytest.raises(ShapeError):
        blk(xr, [xr, small])
