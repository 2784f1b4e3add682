import logging

import numpy as np
import pytest

from factorcl import autodiff as ad
from factorcl import factorized as fz
from factorcl import regularizers as reg
from factorcl import trainer as tr
from factorcl.datasets import TaskStreamSpec, generate_stream
from factorcl.errors import ConfigError, TrainingError
from factorcl.metrics import MetricsReport

SPEC = fz.NetworkSpec.build((3, 3), in_channels=2, input_hw=(3, 3))


def tiny_stream(tasks=2, seed=0, spc=20):
    return generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=tasks, classes_per_task=2,
        samples_per_class=spc, input_shape=(2, 3, 3), seed=seed,
        overlap=0.1, scale=3.0,
    ))


def dense(f):
    return [(u * s) @ v.T for u, s, v in zip(f.u, f.sigma, f.v)]


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
    opt.step({"w": np.array([0.5], np.float32)}, lr=0.1)
    # m/bc1 = 0.5, sqrt(v/bc2) = 0.5 -> step = 0.1 * 0.5 / (0.5 + 1e-8)
    assert params["w"][0] == pytest.approx(1.0 - 0.1, rel=1e-6)


def test_adam_decoupled_moments_per_key():
    params = {"a": np.zeros(2, np.float32), "b": np.zeros(3, np.float32)}
    opt = tr.Adam(params)
    opt.step({"a": np.ones(2, np.float32), "b": np.zeros(3, np.float32)}, lr=0.1)
    assert np.all(params["a"] != 0) and np.all(params["b"] == 0)


def reference_adam_step(params, m, v, t, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one key at a time, each key's arrays of their own: the flat buffer's oracle.

    Its defaults are Adam's usual values, written out, so it also checks ``trainer``'s constants.
    """
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for key, grad in grads.items():
        m[key] = beta1 * m[key] + (1.0 - beta1) * grad
        v[key] = beta2 * v[key] + (1.0 - beta2) * grad * grad
        params[key] -= lr * (m[key] / bc1) / (np.sqrt(v[key] / bc2) + eps)


def test_flat_adam_matches_the_per_key_update_bitwise():
    rng = np.random.default_rng(0)
    shapes = {"u0": (3, 2), "sigma0": (2,), "v0": (5, 2), "head_w": (4, 3), "head_b": (3,)}
    ref = {k: rng.normal(size=sh).astype(np.float32) for k, sh in shapes.items()}
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    params = {k: p.copy() for k, p in ref.items()}
    opt = tr.Adam(params)
    for t in range(1, 51):
        grads = {k: (rng.normal(size=sh) * 10.0 ** rng.integers(-4, 3)).astype(np.float32)
                 for k, sh in shapes.items()}
        lr = float(rng.choice([1e-1, 1e-3, 1e-5]))
        opt.step(grads, lr)
        reference_adam_step(ref, m, v, t, grads, lr)
        for key in shapes:
            assert params[key].tobytes() == ref[key].tobytes(), (t, key)
    assert opt.step_count == 50
    # every entry is a view into the one parameter buffer
    assert all(np.shares_memory(p, opt.flat) for p in params.values())


def test_adam_needs_a_gradient_for_every_parameter():
    params = {"a": np.zeros(2, np.float32), "b": np.zeros(3, np.float32)}
    opt = tr.Adam(params)
    with pytest.raises(KeyError):
        opt.step({"a": np.ones(2, np.float32)}, lr=0.1)
    assert opt.step_count == 0


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


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5), ("epochs", True), ("batch_size", 8.0), ("seed", "1"), ("seed", None),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_cfg(**{field: value})


def test_config_validates_nested_knobs():
    with pytest.raises(ValueError):
        tiny_cfg(energy_e=1.5)
    with pytest.raises(ValueError):
        tiny_cfg(lambda_orth=-1.0)


def test_config_rejects_bad_loss_weights():
    with pytest.raises(ConfigError):
        tiny_cfg(lambda_orth=-0.1, lambda_sparse=0.0)
    with pytest.raises(ConfigError):
        tiny_cfg(lambda_orth=float("nan"), lambda_sparse=0.0)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError):
        tiny_cfg(seed=-1)


# -- train_task ----------------------------------------------------------------------


def test_train_task_improves_fit():
    data = tiny_stream(tasks=1)[0]
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=data.classes)
    before = tr.accuracy(
        fz.run_network(dense(fresh), head, SPEC, data.test_x),
        data.test_y,
    )
    cfg = tiny_cfg(epochs=30, lr_drop_epochs=(20,))
    trained, thead = tr.train_task(data, None, fresh, head, cfg, spec=SPEC)
    after = tr.accuracy(
        fz.run_network(dense(trained), thead, SPEC, data.test_x),
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
    u2_before = [a.copy() for a in fresh2.u]
    tr.train_task(stream[1], space, fresh2, head2, tiny_cfg())
    for a, b in zip(space.u, u_before):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(space.sigma, sig_before):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(fresh2.u, u2_before):
        np.testing.assert_array_equal(a, b)


def test_train_task_without_spec_or_shared_rejected():
    data = tiny_stream(tasks=1)[0]
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=2)
    with pytest.raises(ValueError):
        tr.train_task(data, None, fresh, head, tiny_cfg())


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
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

    # a finite first step whose update blows up: the re-run tape of a
    # later step carries the check too
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=data.classes)
    with pytest.raises(TrainingError) as info:
        tr.train_task(data, None, fresh, head, tiny_cfg(base_lr=1e30), spec=SPEC)
    assert (info.value.epoch, info.value.step) == (0, 1)


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


@pytest.fixture
def fit_starts(monkeypatch):
    """A copy of the parameters each ``_fit`` call starts from."""
    starts = []
    real = tr._fit

    def spy(data, spec, cfg, task, params, build):
        starts.append({k: p.copy() for k, p in params.items()})
        return real(data, spec, cfg, task, params, build)

    monkeypatch.setattr(tr, "_fit", spy)
    return starts


def reference_fit(data, spec, cfg, task, params, build):
    """A fresh graph for every step and per-key Adam: the oracle for tape reuse."""
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    n = data.train_x.shape[0]
    t = 0
    for epoch in range(cfg.epochs):
        lr = tr.lr_schedule(epoch, cfg)
        order = tr._epoch_order(cfg, task, epoch, n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x, y = data.train_x[batch], data.train_y[batch]
            g = ad.Graph()
            weights, penalty_nodes = build(g, params)
            feats = fz.graph_forward(g, weights, spec, g.leaf(x))
            hw = g.leaf(params["head_w"], trainable=True, name="head_w")
            hb = g.leaf(params["head_b"], trainable=True, name="head_b")
            loss = g.softmax_cross_entropy(g.linear(feats, hw, hb), y)
            for term in penalty_nodes:
                loss = g.add(loss, term)
            grads = {g.nodes[i].name: d for i, d in g.backward(loss).items()}
            t += 1
            reference_adam_step(params, m, v, t, grads, lr)


def factor_build(spec, prefix, cfg):
    def build(g, params):
        layers = range(spec.num_layers)
        residual = fz.TaskFactors(task=0, u=[params[f"u{l}"] for l in layers],
                                  sigma=[params[f"sigma{l}"] for l in layers],
                                  v=[params[f"v{l}"] for l in layers])
        composed = fz.compose_weights(g, prefix, residual)
        orth = reg.l_orth_graph(g, composed.u_leaves, composed.v_leaves)
        sparse = reg.l_sparse_graph(g, composed.sigma_leaves)
        return composed.weights, [g.scale(orth, cfg.lambda_orth),
                                  g.scale(sparse, cfg.lambda_sparse)]

    return build


def dense_build(spec):
    def build(g, params):
        return [g.leaf(params[f"w{l}"], trainable=True, name=f"w{l}")
                for l in range(spec.num_layers)], []

    return build


@pytest.mark.parametrize("case", ["full-prefix", "dense", "no-prefix", "short-batch"])
def test_reused_tape_trains_the_bits_of_a_fresh_graph_per_step(case, fit_starts):
    stream = tiny_stream(tasks=2)
    data = stream[1]
    spec = SPEC
    cfg = tiny_cfg(epochs=3, lr_drop_epochs=(2,), batch_size=12 if case == "short-batch" else 8)
    n = data.train_x.shape[0]
    assert (n % cfg.batch_size != 0) == (case == "short-batch")
    if case == "dense":
        weights, head = tr.train_dense_task(data, spec, cfg, task=2)
        trained = {f"w{l}": w for l, w in enumerate(weights)}
        build = dense_build(spec)
    else:
        shared, prefix = None, None
        if case != "no-prefix":  # train against task 1's stored weights
            shared, _ = tr.run_continual(stream[:1], spec, cfg)
            prefix = fz.extract_subnetwork(shared, 1)[0]
            fit_starts.clear()
        fresh, head = fz.expand(spec, 2, cfg.seed, classes=data.classes)
        factors, head = tr.train_task(data, shared, fresh, head, cfg, spec=spec)
        trained = {f"{k}{l}": getattr(factors, k)[l]
                   for k in ("u", "sigma", "v") for l in range(spec.num_layers)}
        build = factor_build(spec, prefix, cfg)
    trained.update(head_w=head.weight, head_b=head.bias)
    (params,) = fit_starts
    reference_fit(data, spec, cfg, 2, params, build)
    assert trained.keys() == params.keys()
    for key, value in params.items():
        assert trained[key].tobytes() == value.tobytes(), key


def test_the_tape_trains_on_adams_arrays(monkeypatch):
    # a step feeds no parameters: each trainable leaf is Adam's own view
    adams, runs = [], []
    real_init, real_run = tr.Adam.__init__, tr._StepTape.run

    def init(adam, *args, **kwargs):
        real_init(adam, *args, **kwargs)
        adams.append(adam)

    def run(tape, x, y):
        (adam,) = adams
        g = tape.graph
        leaves = [node.value for node in g.nodes if node.op == "leaf" and node.needs_grad]
        assert len(leaves) == 3 * SPEC.num_layers + 2
        assert all(np.shares_memory(value, adam.flat) for value in leaves)
        products = [nid for nid, node in enumerate(g.nodes) if node.op == "factor_product"]
        before = [g.value(nid).copy() for nid in products]
        real_run(tape, x, y)
        for nid, old in zip(products, before):
            u, s, v = (g.value(i) for i in g.nodes[nid].inputs)
            assert g.value(nid).tobytes() == fz.dense_weight(u, s, v).tobytes()
            assert g.value(nid).tobytes() != old.tobytes()  # the re-run read Adam's step
        runs.append(len(y))

    monkeypatch.setattr(tr.Adam, "__init__", init)
    monkeypatch.setattr(tr._StepTape, "run", run)
    data = tiny_stream(tasks=1)[0]
    fresh, head = fz.expand(SPEC, 1, seed=0, classes=data.classes)
    tr.train_task(data, None, fresh, head, tiny_cfg(), spec=SPEC)
    assert len(adams) == 1 and runs


def test_a_task_builds_its_tape_once_per_batch_size(monkeypatch):
    graphs = []
    real = ad.Graph.__init__

    def counting(g):
        graphs.append(g)
        real(g)

    monkeypatch.setattr(ad.Graph, "__init__", counting)
    stream = tiny_stream(tasks=3)
    for mode in ("full", "baseline_ub"):
        graphs.clear()
        # 32 samples in batches of 12: two full batches and a short one per epoch
        tr.run_continual(stream, SPEC, tiny_cfg(epochs=3, batch_size=12, mode=mode))
        assert len(graphs) == 3 * 2, mode


def test_each_task_trains_against_the_weights_its_predecessor_serves(monkeypatch):
    prefixes = []
    original = fz.compose_weights

    def recording(g, prefix, residual):
        prefixes.append(prefix)
        return original(g, prefix, residual)

    monkeypatch.setattr(fz, "compose_weights", recording)
    space, _ = tr.run_continual(tiny_stream(tasks=3), SPEC, tiny_cfg(epochs=1, lr_drop_epochs=()))
    steps = len(prefixes) // 3
    assert prefixes[:steps] == [None] * steps  # the first task trains alone
    for t in (2, 3):
        served = fz.extract_subnetwork(space, t - 1)[0]
        for prefix in prefixes[(t - 1) * steps : t * steps]:
            assert [w.tobytes() for w in prefix] == [w.tobytes() for w in served]


def test_one_backward_gives_each_group_its_own_objective_gradient(backward_calls):
    """U and V get the gradient of task + orth, sigma that of task + sparse, bitwise."""
    stream = tiny_stream(tasks=2)
    cfg = tiny_cfg(epochs=1, lr_drop_epochs=())
    space, _ = tr.run_continual(stream[:1], SPEC, cfg)
    fresh, head = fz.expand(SPEC, 2, cfg.seed, classes=stream[1].classes)
    backward_calls.clear()
    tr.train_task(stream[1], space, fresh, head, cfg)
    g, objective = backward_calls[0]
    assert "prefix0" in {node.name for node in g.nodes}

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
    assert report.rank_allocation == [] and report.prune_error == []
    dense = sum(s.c * s.q for s in SPEC.layers)
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


def test_parity_warning_fires_once_per_run(caplog):
    stream = tiny_stream(tasks=3)
    with caplog.at_level(logging.WARNING, logger="factorcl.trainer"):
        space, report = tr.run_continual(stream, SPEC, tiny_cfg())
    # every task appends at least one column against a parity width of 2,
    # so both layers cross, at least one of them before the last task
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    crossings = []
    for l, shape in enumerate(SPEC.layers):
        parity = shape.expansion_rank()
        first = 1 + next(i for i, r in enumerate(space.rank_table[l]) if r > parity)
        assert f"layer {l} width {space.total_width(l)} > parity width {parity} " \
            f"since task {first}" in message
        crossings.append({"layer": l, "width": space.total_width(l),
                          "parity_width": parity, "first_task": first})
    # the same summary goes into the report and survives its JSON round trip
    assert report.parity_crossings == crossings
    assert MetricsReport.from_json(report.to_json()).parity_crossings == crossings

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factorcl.trainer"):
        _, fixed = tr.run_continual(stream, SPEC, tiny_cfg(mode="fixed"))
    assert caplog.records == []
    assert fixed.parity_crossings == []
    assert MetricsReport.from_json(fixed.to_json()).parity_crossings == []


@pytest.mark.parametrize("mode", ["full", "fixed", "st"])
def test_prune_error_is_laid_out_like_rank_allocation_and_bounded(mode):
    _, report = tr.run_continual(tiny_stream(tasks=3), SPEC, tiny_cfg(mode=mode))
    assert np.shape(report.prune_error) == np.shape(report.rank_allocation) == (2, 3)
    assert all(0.0 <= e <= 1.0 for row in report.prune_error for e in row)


def test_a_task_that_appends_nothing_has_prune_error_one():
    # fixed mode caps each layer at its expansion rank (2), so later tasks are cut to 0
    _, report = tr.run_continual(tiny_stream(tasks=3), SPEC, tiny_cfg(mode="fixed"))
    empty = [(l, t) for l, row in enumerate(report.rank_allocation)
             for t, k in enumerate(row) if k == 0]
    assert empty
    assert all(report.prune_error[l][t] == 1.0 for l, t in empty)


def test_unpruned_tasks_have_no_prune_error():
    full = [s.expansion_rank() for s in SPEC.layers]
    cfg = tiny_cfg(energy_e=0.0)
    _, report = tr.run_continual(tiny_stream(tasks=3), SPEC, cfg)
    assert report.rank_allocation == [[r] * 3 for r in full]
    assert all(e < 1e-5 for row in report.prune_error for e in row)


def test_rank_allocation_matches_rank_table():
    stream = tiny_stream(tasks=3)
    space, report = tr.run_continual(stream, SPEC, tiny_cfg())
    for l in range(SPEC.num_layers):
        cum = np.cumsum(report.rank_allocation[l])
        assert tuple(int(c) for c in cum) == space.rank_table[l]
