import numpy as np
import pytest

from bidrn import boxnet, gradcheck
from bidrn.autograd import as_var
from bidrn.boxnet import (Heatmap, BoxNetParams, box_head_forward, box_loss,
                          boxes_tensor, predict_heatmaps, soft_argmax)
from bidrn.errors import DimensionError


def make_heatmap(values):
    values = np.asarray(values, dtype=np.float64)
    n, j, d, h, w = values.shape
    return Heatmap(joints=j, depth=d, height=h, width=w, values=values)


class TestHeatmapNormalization:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        hm = make_heatmap(rng.standard_normal((2, 3, 2, 4, 4)) * 5)
        p = hm.normalized()
        sums = p.reshape(2, 3, -1).sum(axis=2)
        np.testing.assert_allclose(sums, np.ones((2, 3)), atol=1e-5)
        assert p.min() >= 0

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((1, 2, 1, 3, 3))
        a = make_heatmap(v).normalized()
        b = make_heatmap(v + 100.0).normalized()
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_extreme_logits_stable(self):
        hm = make_heatmap(np.full((1, 1, 1, 2, 2), 1e4))
        p = hm.normalized()
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, 0.25, atol=1e-8)


class TestSoftArgmax:
    def test_sharp_peak_recovers_location(self):
        v = np.zeros((1, 1, 2, 4, 5))
        v[0, 0, 1, 2, 3] = 50.0
        out = soft_argmax(make_heatmap(v))
        np.testing.assert_allclose(out[0, 0], [3.0, 2.0, 1.0], atol=1e-6)

    def test_uniform_gives_grid_center(self):
        out = soft_argmax(make_heatmap(np.zeros((1, 1, 1, 3, 5))))
        np.testing.assert_allclose(out[0, 0], [2.0, 1.0, 0.0], atol=1e-6)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((1, 2, 2, 3, 4))
        hm = make_heatmap(v)
        out = soft_argmax(hm)
        p = hm.normalized()
        for j in range(2):
            ex = ey = ez = 0.0
            for z in range(2):
                for y in range(3):
                    for x in range(4):
                        w = p[0, j, z, y, x]
                        ex += w * x
                        ey += w * y
                        ez += w * z
            np.testing.assert_allclose(out[0, j], [ex, ey, ez], atol=1e-6)

    def test_translation_shifts_output(self):
        v = np.zeros((1, 1, 1, 6, 6))
        v[0, 0, 0, 1, 1] = 30.0
        a = soft_argmax(make_heatmap(v))
        b = soft_argmax(make_heatmap(np.roll(v, (2, 2), axis=(3, 4))))
        np.testing.assert_allclose(b[0, 0] - a[0, 0], [2.0, 2.0, 0.0], atol=1e-5)

    def test_coordinates_in_bounds(self):
        rng = np.random.default_rng(3)
        out = soft_argmax(make_heatmap(rng.standard_normal((2, 4, 2, 5, 7))))
        assert np.all(out[..., 0] >= 0) and np.all(out[..., 0] <= 6)
        assert np.all(out[..., 1] >= 0) and np.all(out[..., 1] <= 4)
        assert np.all(out[..., 2] >= 0) and np.all(out[..., 2] <= 1)


class TestPredictHeatmaps:
    def test_shape(self):
        p = BoxNetParams.create(feature_channels=4, joints=3, depth=2, seed=0)
        feat = np.random.default_rng(4).standard_normal((2, 4, 8, 8)).astype(np.float32)
        hm = predict_heatmaps(feat, p)
        assert hm.values.shape == (2, 3, 2, 8, 8)

    def test_channel_mismatch(self):
        p = BoxNetParams.create(feature_channels=4, seed=0)
        with pytest.raises(DimensionError):
            predict_heatmaps(np.ones((1, 3, 8, 8), dtype=np.float32), p)


class TestBoxHead:
    def setup_method(self):
        self.p = BoxNetParams.create(feature_channels=4, joints=2, depth=1,
                                     deconv_channels=4, seed=5)
        self.feat = np.random.default_rng(6).standard_normal(
            (2, 4, 6, 6)).astype(np.float32)

    def test_output_shapes_and_upsampling(self):
        centers, sizes = box_head_forward(self.feat, self.p)
        assert centers.data.shape == (2, boxnet.NUM_BOXES, 2)
        assert sizes.data.shape == (2, boxnet.NUM_BOXES, 2)
        # two stride-2 deconvs upsample 6x6 to 24x24; centers live on that grid
        assert np.all(centers.data >= 0) and np.all(centers.data <= 23)

    def test_sizes_strictly_positive(self):
        _, sizes = box_head_forward(self.feat, self.p)
        assert np.all(sizes.data > 0)

    def test_exactly_one_full_precision_linear(self):
        assert self.p.full_precision_linear_count() == 1

    def test_deterministic(self):
        c1, s1 = box_head_forward(self.feat, self.p)
        c2, s2 = box_head_forward(self.feat, self.p)
        np.testing.assert_array_equal(c1.data, c2.data)
        np.testing.assert_array_equal(s1.data, s2.data)


class TestBoxHeadTape:
    def test_one_node_per_one_bit_layer(self):
        """One batch-8 training step's tape, on the feature shape of the
        full-bidrb preset's last block: each 1-bit layer is one node whose
        parents are its activation and its latent weights, no sign node is
        built, and the tape has 20 nodes."""
        p = BoxNetParams.create(feature_channels=6, seed=0)
        rng = np.random.default_rng(1)
        feature = rng.standard_normal((8, 6, 8, 8)).astype(np.float32)
        target = rng.uniform(1.0, 8.0, size=(8, boxnet.NUM_BOXES, 4))
        centers, sizes = box_head_forward(feature, p)
        loss = box_loss(boxes_tensor(centers, sizes), target)
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._parents:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        one_bit = [p.heat_conv, p.heat_proj, *p.deconvs, p.box_proj, *p.size_linears]
        for layer in one_bit:
            users = [n for n in nodes if layer.latent_weights in n._parents]
            assert len(users) == 1 and users[0].op.startswith("binary_"), users
            assert len(users[0]._parents) == 2
            assert users[0]._parents[1] is layer.latent_weights
        assert "sign" not in {n.op for n in nodes}
        assert len(nodes) == 20


class TestBoxLoss:
    def test_zero_at_target(self):
        x = np.random.default_rng(7).standard_normal((1, 3, 4)).astype(np.float32)
        assert box_loss(as_var(x), as_var(x)).data == 0.0

    def test_hand_case(self):
        pred = np.zeros((1, 2, 4), dtype=np.float32)
        target = np.zeros((1, 2, 4), dtype=np.float32)
        target[0, 0, 0] = 1.0  # single unit error over 8 components
        assert abs(box_loss(as_var(pred), as_var(target)).data - 1.0 / 8) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            box_loss(as_var(np.zeros((1, 3, 4))), as_var(np.zeros((1, 2, 4))))

    def test_boxes_tensor_stacks_and_routes_gradient(self):
        c = as_var(np.ones((1, 3, 2)))
        s = as_var(np.full((1, 3, 2), 2.0))
        stacked = boxes_tensor(c, s)
        assert stacked.data.shape == (1, 3, 4)
        np.testing.assert_array_equal(stacked.data[:, :, :2], c.data)
        np.testing.assert_array_equal(stacked.data[:, :, 2:], s.data)


class TestBoxnetGradients:
    def test_full_head_gradcheck(self):
        err = gradcheck.ALL_CHECKS["boxnet_loss"](seed=0)
        assert err <= gradcheck.REL_TOL
