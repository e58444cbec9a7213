"""Model architecture tests: building blocks, fusion models, pretraining."""

import numpy as np
import pytest

from pineq.autodiff import Adam, Tensor, ShapeError, conv2d, grad_check, maxpool2d, softmax
from pineq.nn import Linear, LayerNorm, SelfAttention, TransformerBlock
from pineq.models import (
    CnnBackbone,
    CnnClassifier,
    CrossModalConfig,
    CrossModalEncoder,
    EnsembleModel,
    MaePretrainer,
    MlpHead,
    contrastive_loss,
    mask_indices,
    patchify_audio,
    patchify_image,
)

TINY = CrossModalConfig(
    token_dim=8,
    heads=2,
    modality_blocks=1,
    joint_blocks=1,
    mlp_ratio=2,
    head_hidden=6,
    audio_tokens=3,
    audio_patch_dim=5,
    visual_tokens=2,
    visual_patch_dim=7,
)


def tiny_tokens(rng, batch=2, cfg=TINY, dtype=np.float64):
    a = rng.normal(size=(batch, cfg.audio_tokens, cfg.audio_patch_dim))
    v = rng.normal(size=(batch, cfg.visual_tokens, cfg.visual_patch_dim))
    return a.astype(dtype), v.astype(dtype)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_linear_matches_numpy_and_handles_tokens():
    rng = np.random.default_rng(0)
    lin = Linear(4, 3, rng)
    x2 = rng.normal(size=(5, 4)).astype(np.float32)
    got = lin(Tensor(x2)).data
    want = x2 @ lin.weight.data + lin.bias.data
    np.testing.assert_allclose(got, want, rtol=1e-6)
    x3 = rng.normal(size=(2, 6, 4)).astype(np.float32)
    got3 = lin(Tensor(x3)).data
    assert got3.shape == (2, 6, 3)
    np.testing.assert_allclose(got3[1, 4], x3[1, 4] @ lin.weight.data + lin.bias.data,
                               rtol=1e-5)


def test_parameter_collection_names_are_dotted_and_unique():
    rng = np.random.default_rng(1)
    enc = CrossModalEncoder(TINY, rng)
    named = enc.named_parameters()
    assert len(named) == len(set(named))
    assert "audio_proj.weight" in named
    assert "joint_blocks.0.attn.wq.weight" in named
    assert all(p.requires_grad for p in named.values())
    # every tensor appears exactly once (no aliased registrations)
    ids = [id(p) for p in named.values()]
    assert len(ids) == len(set(ids))


def test_layer_norm_module_normalizes_tokens():
    rng = np.random.default_rng(2)
    ln = LayerNorm(6)
    x = Tensor(rng.normal(2.0, 3.0, size=(4, 5, 6)))
    y = ln(x).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_self_attention_is_permutation_equivariant():
    rng = np.random.default_rng(3)
    att = SelfAttention(8, heads=2, rng=rng)
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    y = att(Tensor(x)).data
    perm = rng.permutation(5)
    y_perm = att(Tensor(x[:, perm])).data
    np.testing.assert_allclose(y_perm, y[:, perm], atol=1e-5)


def test_self_attention_rejects_indivisible_heads():
    with pytest.raises(ShapeError):
        SelfAttention(6, heads=4, rng=np.random.default_rng(0))


def test_self_attention_records_four_projections_and_one_attention():
    # attention reads each head's columns itself: no reshape or transpose
    att = SelfAttention(8, heads=2, rng=np.random.default_rng(5))
    x = Tensor(np.random.default_rng(6).normal(size=(2, 5, 8)), requires_grad=True)
    ops = sorted(node.op for node in _tape(att(x)) if node._parents)
    assert ops == ["attention", "linear", "linear", "linear", "linear"]


def test_crossmodal_config_checks_positive_heads_before_divisibility():
    with pytest.raises(ValueError, match="^heads must be positive$"):
        CrossModalConfig(heads=0)
    with pytest.raises(ShapeError, match="not divisible by 3 heads"):
        CrossModalConfig(heads=3)


def test_transformer_block_preserves_shape_and_equivariance():
    rng = np.random.default_rng(4)
    blk = TransformerBlock(8, heads=2, rng=rng, mlp_ratio=2)
    x = rng.normal(size=(3, 7, 8)).astype(np.float32)
    y = blk(Tensor(x)).data
    assert y.shape == (3, 7, 8)
    perm = rng.permutation(7)
    y_perm = blk(Tensor(x[:, perm])).data
    np.testing.assert_allclose(y_perm, y[:, perm], atol=1e-4)


# ---------------------------------------------------------------------------
# patch extraction
# ---------------------------------------------------------------------------


def test_patchify_audio_geometry():
    mel = np.arange(1024 * 128, dtype=np.float32).reshape(1024, 128)
    tok = patchify_audio(mel)
    assert tok.shape == (512, 256)
    # token 0 is the top-left 16x16 tile in row-major order
    np.testing.assert_array_equal(tok[0], mel[:16, :16].reshape(-1))
    # tokens scan frequency-major within a time stripe: token 8 starts stripe 2
    np.testing.assert_array_equal(tok[8], mel[16:32, :16].reshape(-1))
    np.testing.assert_array_equal(tok[1], mel[:16, 16:32].reshape(-1))


def test_patchify_image_geometry():
    img = np.arange(224 * 224 * 3, dtype=np.float32).reshape(224, 224, 3)
    tok = patchify_image(img)
    assert tok.shape == (196, 768)
    np.testing.assert_array_equal(tok[0], img[:16, :16].reshape(-1))
    np.testing.assert_array_equal(tok[14], img[16:32, :16].reshape(-1))


def test_patchify_rejects_misaligned_shapes():
    with pytest.raises(ShapeError):
        patchify_audio(np.zeros((1000, 128), dtype=np.float32))
    with pytest.raises(ShapeError):
        patchify_image(np.zeros((224, 220, 3), dtype=np.float32))


# ---------------------------------------------------------------------------
# CNN pair
# ---------------------------------------------------------------------------


def test_cnn_backbone_zero_input_gives_projection_bias():
    rng = np.random.default_rng(5)
    net = CnnBackbone(in_channels=1, in_hw=(32, 16), embed_dim=12, rng=rng)
    out = net(Tensor(np.zeros((2, 1, 32, 16), dtype=np.float32))).data
    np.testing.assert_allclose(out, np.broadcast_to(net.proj.bias.data, (2, 12)),
                               atol=1e-7)


def test_cnn_backbone_shapes_on_both_modalities():
    rng = np.random.default_rng(6)
    aud = CnnBackbone(1, (64, 32), 16, rng)
    vis = CnnBackbone(3, (32, 32), 16, rng)
    a = aud(Tensor(rng.normal(size=(2, 1, 64, 32)).astype(np.float32)))
    v = vis(Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32)))
    assert a.data.shape == (2, 16) and v.data.shape == (2, 16)


@pytest.mark.parametrize("channels", [1, 3], ids=["audio", "visual"])
def test_cnn_pool_before_rectifier_is_bitwise_equal_to_rectifier_first(channels):
    # small integers and mostly-zero kernels make exact zeros and tied window
    # maxima common at every stage
    rng = np.random.default_rng(8)
    net = CnnBackbone(channels, (32, 24), 6, rng)
    for w in net.convs:
        w.data = rng.choice(np.array([-1, 0, 0, 0, 0, 0, 0, 1], dtype=np.float32),
                            size=w.data.shape)
    x = rng.integers(-2, 3, size=(2, channels, 32, 24)).astype(np.float32)

    def rectifier_first(inp):
        h = inp
        for wt, k in zip(net.convs, net._kernels):
            pre = conv2d(h, wt, padding=k // 2)
            n, c, hh, ww = pre.shape  # even at every stage of a 32x24 input
            blocks = np.sort(pre.data.reshape(n, c, hh // 2, 2, ww // 2, 2)
                             .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, -1, 4), axis=-1)
            assert (blocks[..., 3] == 0).any() and (blocks[..., 3] == blocks[..., 2]).any()
            h = maxpool2d(pre.relu(), 2)
        return net.proj(h.reshape(h.shape[0], net.flat_dim))

    results = []
    for forward in (net, rectifier_first):
        inp = Tensor(x, requires_grad=True)
        out = forward(inp)
        (out * out).sum().backward()
        results.append([out.data, inp.grad] + [p.grad for p in net.parameters()])
        for p in net.parameters():
            p.grad = None
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_ensemble_uses_both_streams():
    rng = np.random.default_rng(7)
    model = EnsembleModel(rng, mel_shape=(64, 32), image_hw=(32, 32),
                          embed_dim=16, head_hidden=8)
    mel = rng.normal(size=(2, 64, 32)).astype(np.float32)
    img = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
    base = model.forward(mel, img).data
    assert base.shape == (2, 4)
    jog = model.forward(mel, img + 0.5).data
    assert np.abs(base - jog).max() > 1e-6
    jog2 = model.forward(mel + 0.5, img).data
    assert np.abs(base - jog2).max() > 1e-6


def test_ensemble_probabilities_match_hand_composed_chain():
    rng = np.random.default_rng(70)
    model = EnsembleModel(rng, mel_shape=(64, 32), image_hw=(32, 32),
                          embed_dim=16, head_hidden=8)
    data = np.random.default_rng(71)
    mel = data.normal(size=(3, 64, 32)).astype(np.float32)
    img = data.normal(size=(3, 3, 32, 32)).astype(np.float32)
    probs = softmax(model.logits(mel, img), axis=-1).data
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    # hand-compose: backbone embeddings -> concat -> head -> softmax
    from pineq.autodiff import concat as cat
    a = model.audio_net(Tensor(mel[:, None]))
    v = model.visual_net(Tensor(img))
    want = softmax(model.head(cat([a, v], axis=1)), axis=-1).data
    np.testing.assert_allclose(probs, want, atol=1e-6)


def test_ensemble_zeroed_visual_columns_kill_the_visual_path():
    rng = np.random.default_rng(72)
    model = EnsembleModel(rng, mel_shape=(64, 32), image_hw=(32, 32),
                          embed_dim=16, head_hidden=8)
    # rows 16..32 of the head's first layer read the visual embedding
    model.head.fc1.weight.data[16:, :] = 0.0
    data = np.random.default_rng(73)
    mel = data.normal(size=(2, 64, 32)).astype(np.float32)
    img = data.normal(size=(2, 3, 32, 32)).astype(np.float32)
    base = model.forward(mel, img).data
    moved = model.forward(mel, data.normal(size=(2, 3, 32, 32)).astype(np.float32)).data
    np.testing.assert_array_equal(base, moved)


def test_cnn_classifier_logits_and_probabilities():
    rng = np.random.default_rng(74)
    model = CnnClassifier(rng, in_channels=1, in_hw=(64, 32),
                          embed_dim=16, head_hidden=8)
    x = np.random.default_rng(75).normal(size=(3, 1, 64, 32)).astype(np.float32)
    logits = model.forward(x)
    assert logits.data.shape == (3, 4)
    probs = softmax(model.logits(x[:, 0], None), axis=-1).data
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_all_model_families_emit_probability_vectors():
    trials = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        data = np.random.default_rng(200 + seed)
        cnn = CnnClassifier(rng, 1, (32, 16), embed_dim=8, head_hidden=6)
        ens = EnsembleModel(rng, mel_shape=(32, 16), image_hw=(16, 16),
                            embed_dim=8, head_hidden=6)
        enc = CrossModalEncoder(TINY, rng)
        mel = data.normal(size=(40, 32, 16)).astype(np.float32)
        img = data.normal(size=(40, 3, 16, 16)).astype(np.float32)
        a, v = tiny_tokens(data, batch=40, dtype=np.float32)
        for probs in (
            softmax(cnn.logits(mel, None), axis=-1).data,
            softmax(ens.logits(mel, img), axis=-1).data,
            enc.forward(Tensor(a), Tensor(v))[1].data,
            enc.unimodal_forward(Tensor(a), "audio").data,
            enc.unimodal_forward(Tensor(v), "visual").data,
        ):
            assert (probs >= 0).all()
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
            trials += probs.shape[0]
    assert trials >= 1000


# ---------------------------------------------------------------------------
# cross-modal encoder
# ---------------------------------------------------------------------------


def test_crossmodal_forward_shapes():
    rng = np.random.default_rng(8)
    enc = CrossModalEncoder(TINY, rng)
    a, v = tiny_tokens(np.random.default_rng(9), dtype=np.float32)
    logits = enc.forward_tokens(Tensor(a), Tensor(v))
    assert logits.data.shape == (2, 4)
    ua = enc.unimodal_tokens(Tensor(a), "audio")
    uv = enc.unimodal_tokens(Tensor(v), "visual")
    assert ua.data.shape == (2, 4) and uv.data.shape == (2, 4)
    with pytest.raises(ValueError):
        enc.unimodal_tokens(Tensor(a), "haptic")


def test_crossmodal_forward_returns_representation_and_probabilities():
    rng = np.random.default_rng(80)
    enc = CrossModalEncoder(TINY, rng)
    a, v = tiny_tokens(np.random.default_rng(81), dtype=np.float32)
    rep, probs = enc.forward(Tensor(a), Tensor(v))
    assert rep.data.shape == (2, TINY.token_dim)
    assert probs.data.shape == (2, 4)
    assert (probs.data >= 0).all()
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)
    uni = enc.unimodal_forward(Tensor(a), "audio")
    np.testing.assert_allclose(uni.data.sum(axis=1), 1.0, atol=1e-6)


def test_visual_token_permutation_without_positions_leaves_output_unchanged():
    rng = np.random.default_rng(82)
    enc = CrossModalEncoder(TINY, rng)
    enc.visual_pos.data[:] = 0.0
    a, v = tiny_tokens(np.random.default_rng(83), dtype=np.float32)
    _, base = enc.forward(Tensor(a), Tensor(v))
    perm = np.random.default_rng(84).permutation(TINY.visual_tokens)
    _, moved = enc.forward(Tensor(a), Tensor(v[:, perm]))
    np.testing.assert_allclose(moved.data, base.data, atol=1e-5)


def test_unimodal_matches_hand_composed_single_stream():
    rng = np.random.default_rng(85)
    enc = CrossModalEncoder(TINY, rng)
    a, _ = tiny_tokens(np.random.default_rng(86), dtype=np.float32)
    at = Tensor(a)
    # compose the same weights stage by stage
    x = enc.audio_proj(at) + enc.audio_pos + enc.audio_type
    for blk in enc.audio_blocks:
        x = blk(x)
    for blk in enc.joint_blocks:
        x = blk(x)
    want = enc.head(enc.final_ln(x).mean(axis=1)).data
    got = enc.unimodal_tokens(at, "audio").data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_unimodal_audio_ignores_visual_weights():
    rng = np.random.default_rng(10)
    enc = CrossModalEncoder(TINY, rng)
    a, _ = tiny_tokens(np.random.default_rng(11), dtype=np.float32)
    before = enc.unimodal_tokens(Tensor(a), "audio").data.copy()
    for name, p in enc.named_parameters().items():
        if "visual" in name:
            p.data += 1.0
    after = enc.unimodal_tokens(Tensor(a), "audio").data
    np.testing.assert_array_equal(before, after)
    # but audio-side weights do matter (a non-uniform nudge; layer norm
    # deliberately cancels uniform shifts)
    enc.audio_proj.weight.data[0, 0] += 0.5
    changed = enc.unimodal_tokens(Tensor(a), "audio").data
    assert np.abs(changed - before).max() > 1e-6


def test_fusion_reacts_to_both_streams():
    rng = np.random.default_rng(12)
    enc = CrossModalEncoder(TINY, rng)
    a, v = tiny_tokens(np.random.default_rng(13), dtype=np.float32)
    base = enc.forward_tokens(Tensor(a), Tensor(v)).data
    moved_v = enc.forward_tokens(Tensor(a), Tensor(v + 0.5)).data
    moved_a = enc.forward_tokens(Tensor(a + 0.5), Tensor(v)).data
    assert np.abs(base - moved_v).max() > 1e-6
    assert np.abs(base - moved_a).max() > 1e-6


def test_crossmodal_gradcheck_inputs():
    rng = np.random.default_rng(14)
    enc = CrossModalEncoder(TINY, rng)
    enc.cast(np.float64)
    a, v = tiny_tokens(np.random.default_rng(15), batch=2)

    def f(at, vt):
        return enc.forward_tokens(at, vt).sum()

    err = grad_check(f, [Tensor(a), Tensor(v)])
    assert err < 1e-4, f"worst relative gradient error {err:.2e}"


def test_crossmodal_gradcheck_parameters():
    rng = np.random.default_rng(16)
    enc = CrossModalEncoder(TINY, rng)
    enc.cast(np.float64)
    a, v = tiny_tokens(np.random.default_rng(17), batch=1)
    at, vt = Tensor(a), Tensor(v)
    for name in ["audio_proj.bias", "head.out.weight",
                 "joint_blocks.0.ln1.gamma", "audio_type"]:
        param = enc.named_parameters()[name]

        def f(w, _name=name, _orig=param):
            # splice the candidate tensor into the module tree so the
            # graph flows through it, then restore
            enc.set_parameter(_name, w)
            try:
                return enc.forward_tokens(at, vt).sum()
            finally:
                enc.set_parameter(_name, _orig)

        err = grad_check(f, Tensor(param.data.copy()))
        assert err < 1e-4, f"{name}: worst relative gradient error {err:.2e}"


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------


def test_contrastive_single_pair_is_zero():
    rng = np.random.default_rng(18)
    a = Tensor(rng.normal(size=(1, 6)))
    v = Tensor(rng.normal(size=(1, 6)))
    assert contrastive_loss(a, v).item() == 0.0


def test_contrastive_aligned_pairs_near_zero():
    rng = np.random.default_rng(19)
    e = rng.normal(size=(4, 16))
    loss = contrastive_loss(Tensor(e), Tensor(e.copy()), temperature=0.01)
    assert loss.item() < 1e-3


def test_contrastive_orthogonal_invariance_and_symmetry():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(5, 8))
    v = rng.normal(size=(5, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    base = contrastive_loss(Tensor(a), Tensor(v)).item()
    rotated = contrastive_loss(Tensor(a @ q), Tensor(v @ q)).item()
    swapped = contrastive_loss(Tensor(v), Tensor(a)).item()
    assert abs(base - rotated) < 1e-8
    assert abs(base - swapped) < 1e-8
    assert base > 0.1  # random pairs are far from aligned


def test_contrastive_matches_bruteforce_double_sum():
    rng = np.random.default_rng(90)
    a = rng.normal(size=(8, 12))
    v = rng.normal(size=(8, 12))
    tau = 0.07
    got = contrastive_loss(Tensor(a), Tensor(v), tau).item()
    # independent brute-force: normalize, all-pairs similarities, two
    # cross-entropy sums over explicit Python loops
    an = a / np.linalg.norm(a, axis=1, keepdims=True)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    s = an @ vn.T / tau
    total = 0.0
    for i in range(8):
        total -= np.log(np.exp(s[i, i]) / np.exp(s[i]).sum())
        total -= np.log(np.exp(s[i, i]) / np.exp(s[:, i]).sum())
    want = total / (2 * 8)
    assert abs(got - want) < 1e-9


def test_contrastive_validates_arguments():
    rng = np.random.default_rng(91)
    a = Tensor(rng.normal(size=(3, 5)))
    with pytest.raises(ValueError):
        contrastive_loss(a, Tensor(rng.normal(size=(3, 5))), temperature=0.0)
    with pytest.raises(ShapeError):
        contrastive_loss(a, Tensor(rng.normal(size=(3, 6))))


def test_contrastive_gradcheck():
    rng = np.random.default_rng(21)
    a = Tensor(rng.normal(size=(3, 5)))
    v = Tensor(rng.normal(size=(3, 5)))

    def f(at, vt):
        return contrastive_loss(at, vt, temperature=0.2)

    assert grad_check(f, [a, v]) < 1e-5


# ---------------------------------------------------------------------------
# masked-reconstruction pretraining
# ---------------------------------------------------------------------------


def test_mask_indices_count_and_range():
    rng = np.random.default_rng(22)
    idx = mask_indices(rng, 708, 0.75)
    assert len(idx) == 531  # ceil(0.75 * 708)
    assert len(set(idx.tolist())) == len(idx)
    assert idx.min() >= 0 and idx.max() < 708
    assert mask_indices(rng, 10, 0.101).size == 2  # ceil rounds up
    # determinism under a fixed seed
    i1 = mask_indices(np.random.default_rng(5), 50, 0.5)
    i2 = mask_indices(np.random.default_rng(5), 50, 0.5)
    np.testing.assert_array_equal(i1, i2)


def test_mae_loss_only_counts_masked_patches():
    rng = np.random.default_rng(23)
    enc = CrossModalEncoder(TINY, rng)
    pre = MaePretrainer(enc, rng)
    a, v = tiny_tokens(np.random.default_rng(24), dtype=np.float32)
    n = TINY.audio_tokens + TINY.visual_tokens
    mask = np.zeros((2, n), dtype=bool)
    mask[:, [0, TINY.audio_tokens]] = True  # one audio + one visual token
    _, parts = pre.loss(Tensor(a), Tensor(v), mask)
    assert parts["masked_values"] == 2 * (TINY.audio_patch_dim + TINY.visual_patch_dim)
    # masking only audio keeps visual reconstruction out of the sum
    mask_a = np.zeros((2, n), dtype=bool)
    mask_a[:, 0] = True
    _, parts_a = pre.loss(Tensor(a), Tensor(v), mask_a)
    assert parts_a["masked_values"] == 2 * TINY.audio_patch_dim
    # an empty mask leaves nothing to reconstruct
    with pytest.raises(ValueError):
        pre.loss(Tensor(a), Tensor(v), np.zeros((2, n), dtype=bool))


def test_mae_zeroed_decoder_on_zero_targets_reconstructs_exactly():
    rng = np.random.default_rng(30)
    enc = CrossModalEncoder(TINY, rng)
    pre = MaePretrainer(enc, rng)
    for lin in (pre.dec_audio, pre.dec_visual):
        lin.weight.data[:] = 0.0
        lin.bias.data[:] = 0.0
    a = np.zeros((2, TINY.audio_tokens, TINY.audio_patch_dim), dtype=np.float32)
    v = np.zeros((2, TINY.visual_tokens, TINY.visual_patch_dim), dtype=np.float32)
    mask = pre.sample_mask(np.random.default_rng(31), 2)
    _, parts = pre.loss(Tensor(a), Tensor(v), mask)
    assert parts["reconstruction"] == 0.0


def test_mae_training_halves_combined_loss():
    rng = np.random.default_rng(25)
    enc = CrossModalEncoder(TINY, rng)
    pre = MaePretrainer(enc, rng)
    data_rng = np.random.default_rng(26)
    a, v = tiny_tokens(data_rng, batch=8, dtype=np.float32)
    opt = Adam(pre.pretrain_parameters(), lr=1e-2)
    # the classifier head and its pooling norm take no part in pretraining
    excluded = {id(p) for name, p in pre.named_parameters().items()
                if ".head." in name or ".final_ln." in name}
    assert excluded
    assert excluded.isdisjoint({id(p) for p in pre.pretrain_parameters()})
    mask_rng = np.random.default_rng(27)
    first = combined = None
    for step in range(300):
        mask = pre.sample_mask(mask_rng, 8)
        loss, parts = pre.loss(Tensor(a), Tensor(v), mask)
        combined = loss.item()
        if first is None:
            first = combined
        loss.backward()
        opt.step()
    assert combined < 0.5 * first, f"combined loss {first:.4f} -> {combined:.4f}"


def test_mae_gradcheck():
    rng = np.random.default_rng(28)
    enc = CrossModalEncoder(TINY, rng)
    pre = MaePretrainer(enc, rng)
    pre.cast(np.float64)
    a, v = tiny_tokens(np.random.default_rng(29), batch=2)
    n = TINY.audio_tokens + TINY.visual_tokens
    mask = np.zeros((2, n), dtype=bool)
    mask[:, [0, 2, 3]] = True

    def f(at, vt):
        loss, _ = pre.loss(at, vt, mask)
        return loss

    assert grad_check(f, [Tensor(a), Tensor(v)]) < 1e-4


# ---------------------------------------------------------------------------
# dtype: float32 from input to gradient
# ---------------------------------------------------------------------------

# 32x32 maps give four 16x16 patches per stream
TAPE_CFG = CrossModalConfig(token_dim=8, heads=2, modality_blocks=1,
                            joint_blocks=1, mlp_ratio=2, head_hidden=6,
                            audio_tokens=4, audio_patch_dim=256,
                            visual_tokens=4, visual_patch_dim=768)


def _tape(root):
    """Every node of the graph that ends in ``root``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("kind", ["cnn-audio", "cnn-visual", "ensemble", "crossmodal",
                                  "crossmodal-audio", "crossmodal-visual", "pretraining"])
def test_float32_forward_and_backward_record_no_float64_node(kind):
    from pineq.training import weighted_smoothed_ce

    rng = np.random.default_rng(60)
    data = np.random.default_rng(61)
    mel = data.normal(size=(3, 32, 32)).astype(np.float32)
    img = data.normal(size=(3, 3, 32, 32)).astype(np.float32)
    ai, vi = np.array([0, 1, 0, 2]), np.array([1, 0, 2, 2])  # repeats take rows
    labels = np.array([0, 1, 2, 3])
    if kind == "pretraining":
        enc = CrossModalEncoder(TAPE_CFG, rng)
        pre = MaePretrainer(enc, rng)
        a, v = enc.patch_tokens(mel, img)
        loss, _ = pre.loss(Tensor(a), Tensor(v), pre.sample_mask(rng, 4), ai, vi)
    else:
        if kind == "cnn-audio":
            model, img = CnnClassifier(rng, 1, (32, 32), 8, 6), None
        elif kind == "cnn-visual":
            model, mel = CnnClassifier(rng, 3, (32, 32), 8, 6), None
        elif kind == "ensemble":
            model = EnsembleModel(rng, (32, 32), (32, 32), embed_dim=8, head_hidden=6)
        else:
            model = CrossModalEncoder(TAPE_CFG, rng)
            if kind == "crossmodal-audio":
                img = None
            elif kind == "crossmodal-visual":
                mel = None
        # a single-stream model reads only its own stream's index
        loss = weighted_smoothed_ce(model.logits(mel, img, ai, vi), labels,
                                    (1.0, 2.0, 1.0, 3.0), 0.1)
    nodes = _tape(loss)
    assert any(n.op == "take" for n in nodes)
    wide = {n.op for n in nodes if n.data.dtype != np.float32}
    # backward frees each inner node's gradient once its vjp has run, so
    # record every gradient a vjp reads or returns while backward runs
    ran = []

    def recording(node):
        vjp = node._vjp

        def wrapped(g):
            grads = vjp(g)
            ran.append(node)
            if any(a.dtype != np.float32 for a in (g, *grads) if a is not None):
                wide.add(node.op)
            return grads
        return wrapped

    inner = [n for n in nodes if n._vjp is not None]
    for n in inner:
        n._vjp = recording(n)
    loss.backward()
    assert len(ran) == len(inner)
    wide |= {n.op for n in nodes if n.grad is not None and n.grad.dtype != np.float32}
    assert not wide, f"{kind}: float32 input recorded non-float32 {sorted(wide)} nodes"
