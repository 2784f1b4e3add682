import numpy as np
import pytest

from factorcl import autodiff as ad
from factorcl import factorized as fz
from factorcl import trainer as tr
from factorcl.datasets import TaskStreamSpec, generate_stream
from factorcl.errors import ConfigError, TrainingError

SPEC = fz.NetworkSpec.build((3, 3), in_channels=2, input_hw=(3, 3))


def tiny_stream(tasks=2, seed=0, spc=20):
    return generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=tasks, classes_per_task=2,
        samples_per_class=spc, input_shape=(2, 3, 3), seed=seed,
        overlap=0.1, scale=3.0,
    ))


def tiny_cfg(**kw):
    base = dict(epochs=2, batch_size=8, lr_drop_epochs=(1,), seed=0, energy_e=1e-2)
    base.update(kw)
    return tr.TrainConfig(**base)


@pytest.fixture
def backward_calls(monkeypatch):
    """Every ``Graph.backward`` call as (graph, loss node), in call order."""
    calls = []
    original = ad.Graph.backward

    def recording(g, loss):
        calls.append((g, loss))
        return original(g, loss)

    monkeypatch.setattr(ad.Graph, "backward", recording)
    return calls


# -- schedule and optimizer ---------------------------------------------------------


def test_lr_schedule_steps_down_by_factor_10():
    cfg = tr.TrainConfig()  # drops at 80, 120, 180 over 200 epochs
    assert tr.lr_schedule(0, cfg) == pytest.approx(1e-3)
    assert tr.lr_schedule(79, cfg) == pytest.approx(1e-3)
    assert tr.lr_schedule(80, cfg) == pytest.approx(1e-4)
    assert tr.lr_schedule(120, cfg) == pytest.approx(1e-5)
    assert tr.lr_schedule(199, cfg) == pytest.approx(1e-6)


def test_adam_single_step_hand_oracle():
    # m_hat = g, v_hat = g^2 after one step, so the update is lr * sign-ish step
    params = {"w": np.array([1.0], np.float32)}
    opt = tr.Adam(params)
    opt.step(params, {"w": np.array([0.5], np.float32)}, lr=0.1)
    # m/bc1 = 0.5, sqrt(v/bc2) = 0.5 -> step = 0.1 * 0.5 / (0.5 + 1e-8)
    assert params["w"][0] == pytest.approx(1.0 - 0.1, rel=1e-6)


def test_adam_decoupled_moments_per_key():
    params = {"a": np.zeros(2, np.float32), "b": np.zeros(3, np.float32)}
    opt = tr.Adam(params)
    opt.step(params, {"a": np.ones(2, np.float32), "b": np.zeros(3, np.float32)}, lr=0.1)
    assert np.all(params["a"] != 0) and np.all(params["b"] == 0)


# -- config validation ---------------------------------------------------------------


def test_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        tiny_cfg(mode="unknown")


def test_config_rejects_bad_drop_schedule():
    with pytest.raises(ConfigError):
        tiny_cfg(epochs=10, lr_drop_epochs=(5, 5))
    with pytest.raises(ConfigError):
        tiny_cfg(epochs=10, lr_drop_epochs=(12,))


def test_config_rejects_nonpositive_sizes():
    with pytest.raises(ConfigError):
        tiny_cfg(epochs=0)
    with pytest.raises(ConfigError):
        tiny_cfg(batch_size=0)


def test_config_validates_nested_knobs():
    with pytest.raises(ValueError):
        tiny_cfg(energy_e=1.5)
    with pytest.raises(ValueError):
        tiny_cfg(lambda_orth=-1.0)


# -- train_task ----------------------------------------------------------------------


def test_train_task_improves_fit():
    data = tiny_stream(tasks=1)[0]
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=data.classes)
    before = tr.accuracy(
        fz.run_network(fz.compose_dense(None, 0, fresh), head, SPEC, data.test_x),
        data.test_y,
    )
    cfg = tiny_cfg(epochs=30, lr_drop_epochs=(20,))
    trained, thead = tr.train_task(data, None, fresh, head, cfg, spec=SPEC)
    after = tr.accuracy(
        fz.run_network(fz.compose_dense(None, 0, trained), thead, SPEC, data.test_x),
        data.test_y,
    )
    assert after >= max(before, 0.9)


def test_train_task_leaves_inputs_and_shared_untouched():
    stream = tiny_stream(tasks=2)
    space = fz.empty_space(SPEC)
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=2)
    trained, _ = tr.train_task(stream[0], space, fresh, head, tiny_cfg(), spec=SPEC)
    space = fz.append(space, trained, head)
    fresh2, head2 = fz.expand(SPEC, 2, seed=0, classes=2)
    u_before = [a.copy() for a in space.u]
    sig_before = [a.copy() for a in space.sigma]
    fresh2_before = fresh2.copy()
    tr.train_task(stream[1], space, fresh2, head2, tiny_cfg())
    for a, b in zip(space.u, u_before):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(space.sigma, sig_before):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(fresh2.u, fresh2_before.u):
        np.testing.assert_array_equal(a, b)


def test_train_task_without_spec_or_shared_rejected():
    data = tiny_stream(tasks=1)[0]
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=2)
    with pytest.raises(ValueError):
        tr.train_task(data, None, fresh, head, tiny_cfg())


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_objective_stops_training():
    # the orthogonality term overflows while the composed weights, and so
    # the task loss, stay finite
    data = tiny_stream(tasks=1)[0]
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=data.classes)
    fresh.u[0] *= np.float32(1e20)
    fresh.sigma[0] *= np.float32(1e-20)
    cfg = tiny_cfg(epochs=1, lr_drop_epochs=(), batch_size=data.train_x.shape[0])
    with pytest.raises(TrainingError):
        tr.train_task(data, None, fresh, head, cfg, spec=SPEC)


def test_each_trainer_runs_one_backward_pass_per_minibatch(backward_calls):
    data = tiny_stream(tasks=1)[0]
    cfg = tiny_cfg()
    steps = cfg.epochs * -(-data.train_x.shape[0] // cfg.batch_size)
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=data.classes)
    tr.train_task(data, None, fresh, head, cfg, spec=SPEC)
    assert len(backward_calls) == steps
    backward_calls.clear()
    tr.train_dense_task(data, SPEC, cfg, task=1)
    assert len(backward_calls) == steps


def test_one_backward_gives_each_group_its_own_objective_gradient(backward_calls):
    """U and V get the gradient of task + orth, sigma that of task + sparse, bitwise."""
    stream = tiny_stream(tasks=2)
    cfg = tiny_cfg(epochs=1, lr_drop_epochs=())
    space, _ = tr.run_continual(stream[:1], SPEC, cfg)
    fresh, head = fz.expand(SPEC, 2, cfg.seed, classes=stream[1].classes)
    backward_calls.clear()
    tr.train_task(stream[1], space, fresh, head, cfg)
    g, objective = backward_calls[0]
    assert "shared_u0" in {node.name for node in g.nodes}

    # objective = (task + lambda_o * orth) + lambda_s * sparse
    task_orth, sparse_term = g.nodes[objective].inputs
    task = g.nodes[task_orth].inputs[0]
    task_sparse = g.add(task, sparse_term)
    merged = g.backward(objective)
    uv, sig = g.backward(task_orth), g.backward(task_sparse)
    names = {nid: g.nodes[nid].name for nid in merged}
    layers = range(SPEC.num_layers)
    assert set(names.values()) == {
        f"{k}{l}" for k in ("u", "sigma", "v") for l in layers
    } | {"head_w", "head_b"}
    for nid, name in names.items():
        own = sig if name.startswith("sigma") else uv
        other = uv if own is sig else sig
        assert merged[nid].tobytes() == own[nid].tobytes(), name
        if not name.startswith("head"):
            assert not np.array_equal(merged[nid], other[nid]), name


# -- run_continual --------------------------------------------------------------------


def test_empty_stream_rejected():
    with pytest.raises(ConfigError):
        tr.run_continual([], SPEC, tiny_cfg())


def test_run_continual_returns_space_and_report():
    stream = tiny_stream(tasks=2)
    space, report = tr.run_continual(stream, SPEC, tiny_cfg())
    assert isinstance(space, fz.SharedSpace)
    assert space.num_tasks == 2
    assert report.acc_matrix.shape == (2, 2)
    assert report.size_bytes == fz.size_bytes(space)
    assert len(report.wall_clock) == 2
    assert report.config["mode"] == "full"


def test_run_continual_deterministic():
    stream = tiny_stream(tasks=2)
    a, ra = tr.run_continual(stream, SPEC, tiny_cfg())
    b, rb = tr.run_continual(stream, SPEC, tiny_cfg())
    for l in range(SPEC.num_layers):
        np.testing.assert_array_equal(a.u[l], b.u[l])
        np.testing.assert_array_equal(a.sigma[l], b.sigma[l])
        np.testing.assert_array_equal(a.v[l], b.v[l])
    np.testing.assert_array_equal(ra.acc_matrix, rb.acc_matrix)


def test_zero_bwt_by_construction():
    stream = tiny_stream(tasks=3)
    _, report = tr.run_continual(stream, SPEC, tiny_cfg())
    assert report.bwt == 0.0
    m = report.acc_matrix
    for i in range(3):
        col = m[i:, i]
        assert np.all(col == col[0])


def test_baseline_ub_returns_dense_models():
    stream = tiny_stream(tasks=2)
    models, report = tr.run_continual(stream, SPEC, tiny_cfg(mode="baseline_ub"))
    assert isinstance(models, tr.DenseTaskModels)
    assert models.num_tasks == 2
    assert report.rank_allocation == []
    dense = sum(s.dense_params for s in SPEC.layers)
    heads = sum(h.param_count for h in models.heads)
    assert models.param_count() == 2 * dense + heads


def test_st_mode_isolates_tasks():
    stream = tiny_stream(tasks=2)
    space, _ = tr.run_continual(stream, SPEC, tiny_cfg(mode="st"))
    assert space.isolated
    # isolated extraction reads each task's own segment, not the prefix
    w1, _ = fz.extract_subnetwork(space, 1)
    w2, _ = fz.extract_subnetwork(space, 2)
    assert not any(np.array_equal(a, b) for a, b in zip(w1, w2))


def test_fixed_mode_caps_total_width():
    stream = tiny_stream(tasks=3)
    space, report = tr.run_continual(stream, SPEC, tiny_cfg(mode="fixed", energy_e=1e-4))
    for l, shape in enumerate(SPEC.layers):
        assert space.total_width(l) <= shape.expansion_rank()
    # appended ranks per layer sum to the final cumulative rank
    for l in range(SPEC.num_layers):
        assert sum(report.rank_allocation[l]) == space.rank_table[l][-1]


def test_raw_sink_collects_unpruned_factors():
    stream = tiny_stream(tasks=2)
    raw: list = []
    tr.run_continual(stream, SPEC, tiny_cfg(), raw_sink=raw)
    assert len(raw) == 2
    expected = tuple(s.expansion_rank() for s in SPEC.layers)
    for factors, head in raw:
        assert factors.ranks() == expected
        assert head.classes == 2


def test_rank_allocation_matches_rank_table():
    stream = tiny_stream(tasks=3)
    space, report = tr.run_continual(stream, SPEC, tiny_cfg())
    for l in range(SPEC.num_layers):
        cum = np.cumsum(report.rank_allocation[l])
        assert tuple(int(c) for c in cum) == space.rank_table[l]
