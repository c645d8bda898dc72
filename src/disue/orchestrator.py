"""Round orchestration: local training, clustering, aggregation, fusion.

One round of the full pipeline:

  1. sample the active clients for the round,
  2. the active clients train locally from their broadcast models,
  3. clients upload masked parameters; the server builds the similarity
     matrix and clusters the active set,
  4. clusters are aggregated into cluster models, cluster models into the
     plain global average,
  5. the distillation stage fuses the cluster models into the universal
     model that is broadcast next round.

Variants switch stages off or weaken them as declared once, in
`config.VARIANT_SPECS`: a variant that does not cluster averages all
actives as one group in 4, one that does not fuse skips 5, and a
cluster-broadcast variant sends each member its cluster's model instead
of the global one.

Everything a round changes lives in one frozen `SimState`: the round
index, the global model, the generator a later round reads, what each
client last received and the running label totals. A round maps the
committed state to the next one without writing into it, and
`run_round` commits the new state only when the round succeeds; a
failed round commits nothing. Events are an append-only log kept
outside the state.

Randomness is streamed per purpose: every consumer in this module draws
from a generator keyed by (master seed, purpose tag, round, client), so
results do not depend on scheduling or worker count. The masks are not
keyed so: `secure` seeds them by (masking seed, round), and the masking
seed defaults to the run seed, so the masks of rounds 0, 1, 2, 4 and 5
reuse the streams of the dataset, the test split, the partition, the
model init and the generator init. Local training runs the clients
that take one number of SGD steps per epoch as one ragged stack (every
full-batch client, whatever its shard size, steps once per epoch), and
each slice equals its client trained alone, bit for bit; `workers`
changes nothing, so results are bitwise identical at any worker count.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import nn
from .aggregation import (
    compute_gls,
    compute_gwf,
    global_average,
    intra_group_aggregate,
    uniform_gls,
    uniform_gwf,
)
from .clustering import ClusterPartition, affinity_propagation, build_similarity_matrix, singleton_partition
from .config import VARIANT_SPECS, SimConfig
from .data import (
    Dataset,
    LabelHistogram,
    dirichlet_partition,
    label_counts,
    make_synthetic_dataset,
    split_client_holdout,
    split_dataset,
)
from .distill import iga_round
from .errors import DivergenceError, InvalidInputError
from .metrics import RoundMetrics
from .nn import Classifier, Generator
from .secure import SecParams, ssc_encrypt

# purpose tags for seed streams; fixed forever, order is part of the contract
_TAG_DATASET = 0
_TAG_TEST_SPLIT = 1
_TAG_PARTITION = 2
_TAG_HOLDOUT = 3
_TAG_MODEL_INIT = 4
_TAG_GEN_INIT = 5
_TAG_ACTIVE = 6
_TAG_LOCAL = 7
_TAG_IGA = 8

# clients per training stack: a stack's working set is about 3.7 times its
# [C, P] rows, mostly activations (8.8 MB for the 64 largest full-batch clients
# of `cluster-300`, 5.0 for the 32 largest), and the heap it leaves stays
# resident through clustering; any split gives the same bits
_MAX_STACK = 32


def stream(master_seed: int, tag: int, *extra: int) -> np.random.Generator:
    """A deterministic generator for one purpose, distinct from the other purposes' but not from the masks'."""
    return np.random.default_rng([int(master_seed), int(tag), *map(int, extra)])


@dataclass
class ClientShard:
    """One client's fixed local data: a training shard and a held-out shard."""

    client_id: int
    train: Dataset
    holdout: Dataset


@dataclass
class FederatedData:
    """Immutable per-seed data environment for a simulation."""

    clients: list[ClientShard]
    test: Dataset  # the held-out split the global model is scored on


@dataclass
class Event:
    """A warning surfaced by a round stage."""

    round_index: int
    stage: str
    message: str


def build_federated_data(cfg: SimConfig, seed: int) -> FederatedData:
    """Generate, split and federate the synthetic task for one seed."""
    ds = cfg.dataset
    full = make_synthetic_dataset(
        ds.num_classes,
        ds.samples_per_class,
        ds.feature_dim,
        seed=[seed, _TAG_DATASET],
        class_std=ds.class_std,
        radius=ds.radius,
    )
    train_pool, test_pool = split_dataset(full, ds.test_fraction, seed=[seed, _TAG_TEST_SPLIT])
    shards = dirichlet_partition(train_pool, cfg.clients, cfg.epsilon, seed=[seed, _TAG_PARTITION])
    clients = []
    for cid, shard in enumerate(shards):
        train, holdout = split_client_holdout(shard, ds.holdout_fraction, seed=[seed, _TAG_HOLDOUT, cid])
        clients.append(ClientShard(cid, train, holdout))
    return FederatedData(clients, test_pool)


def sample_active_clients(num_clients: int, act: float, round_index: int, master_seed: int) -> np.ndarray:
    """The sorted ids of this round's participants: ceil(act * N) without replacement."""
    if not 0.0 < act <= 1.0:
        raise InvalidInputError("act must be in (0, 1]")
    count = math.ceil(act * num_clients)
    rng = stream(master_seed, _TAG_ACTIVE, round_index)
    return np.sort(rng.choice(num_clients, size=count, replace=False)).astype(np.int64)


@nn.FLOAT_POLICY
def local_train(
    shards: Sequence[Dataset],
    init_params: np.ndarray,
    template: Classifier,
    epochs: int,
    lr: float,
    batch_size: int,
    weight_decay: float,
    rngs: Sequence[np.random.Generator | None],
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Mini-batch SGD for C clients that take one number of steps per epoch, trained as one stack.

    Client c starts from row c of the [C, P] init_params. A client whose
    shard is larger than a batch draws its batch order from rngs[c]; a full
    batch draws nothing, so its entry may be None. Each step trains every
    client's batch as the rows of one ragged stack (`nn.Segments`), and
    each slice's values equal the client's trained alone, bit for bit.
    Shards in order of size make the fewest runs of equal batch width.
    Returns (C-contiguous [C, P] parameters, [C] mean training losses,
    positions of the diverged clients): a client whose logits, loss or
    gradient turn non-finite leaves the stack with a copy of its initial
    row and a nan loss. A failed step that no client's own checks explain
    re-raises its DivergenceError.
    """
    sizes = np.array([s.n for s in shards], dtype=np.int64)
    if sizes.min() < 1:
        raise InvalidInputError("cannot train on an empty shard")
    if np.ndim(init_params) != 2 or len(init_params) != len(shards):
        raise InvalidInputError(f"expected one initial row per shard, {len(shards)} in all, got shape {np.shape(init_params)}")
    steps = -(-sizes // batch_size)
    if np.any(steps != steps[0]):
        raise InvalidInputError(f"a stack takes one number of steps per epoch, got {sorted(set(steps.tolist()))}")
    steps = int(steps[0])
    features, labels = np.concatenate([s.features for s in shards]), np.concatenate([s.labels for s in shards])
    first = np.cumsum(sizes) - sizes  # each client's first row in the pooled shards
    # each client's epoch order as pooled rows, padded with -1 after its last
    slots = np.arange(steps * batch_size)
    order = np.where(slots < sizes[:, None], first[:, None] + slots, -1)
    step_losses = np.empty((len(shards), epochs, steps))
    live, gone = np.arange(len(shards)), []  # positions still in the stack, and those that left it

    def step_segments(live: np.ndarray) -> list[nn.Segments]:  # each step's batch widths: full batches, then the rest
        return [nn.Segments(np.full(live.size, batch_size))] * (steps - 1) + [nn.Segments(sizes[live] - (steps - 1) * batch_size)]

    segments = step_segments(live)
    model = template.spawn(init_params)
    for epoch in range(epochs):
        if steps > 1:  # each client draws its epoch's order at the epoch's start, as it would alone
            for row, c in zip(order, live):
                row[: sizes[c]] = first[c] + rngs[c].permutation(sizes[c])
        for step in range(steps):
            while live.size:
                batch = order[:, step * batch_size : (step + 1) * batch_size]
                rows = batch[batch >= 0]
                logits = model.forward(features[rows], segments[step])
                try:  # a client alone's finiteness checks, on the whole stack
                    loss = nn.cross_entropy(logits, labels[rows], segments[step])
                    if not np.isfinite(loss.data).all():
                        raise DivergenceError("non-finite training loss")
                    nn.backward(nn.tsum(loss))
                    model.step(lr, weight_decay)
                    step_losses[live, epoch, step] = loss.data
                    break
                except DivergenceError:  # the same checks per client, in the same order
                    bad = np.zeros(live.size, dtype=bool)
                    bad[segments[step].owner[~np.isfinite(logits.data).all(axis=1)]] = True
                    if not bad.any():  # so this step's loss exists
                        bad = ~np.isfinite(loss.data)
                    if not bad.any():  # and so do its gradients
                        bad = ~np.all([np.isfinite(p.grad).all(axis=(1, 2)) for p in model.parameters()], axis=0)
                    if not bad.any():  # no client to shed: a replay would fail the same way
                        raise
                    # the failed step moved no parameter: replay it without the diverged clients
                    gone += live[bad].tolist()
                    live, order = live[~bad], order[~bad]
                    segments = step_segments(live)
                    model = template.spawn(model.param_vector()[~bad])
    params = model.param_vector()  # the survivors' rows, fresh and C-contiguous
    if gone:  # a diverged client keeps a copy of its initial row
        params, survivors = np.empty((len(shards), params.shape[1])), params
        params[live], params[gone] = survivors, init_params[gone]
    losses = np.full(len(shards), np.nan)
    # each client's own steps, summed as np.mean of its row alone sums them; -1 cannot size zero rows
    losses[live] = step_losses[live].reshape(live.size, epochs * steps).mean(axis=1)
    return params, losses, tuple(sorted(gone))


def _evaluate(template: Classifier, params: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    return nn.accuracy(template.spawn(params), features, labels)


@dataclass(frozen=True)
class SimState:
    """Everything one seed's simulation carries from a round to the next.

    A round reads one state and returns the next. It never writes into the
    arrays or the dict of the state it read, so a round that fails leaves
    nothing to undo.
    """

    round_index: int
    global_params: np.ndarray
    # the persistent generator; None when no later round reads one, because
    # the variant never fuses or every fusing round draws a fresh generator
    generator_params: np.ndarray | None
    # what each client last received; filled only by cluster-broadcast variants
    client_feed: dict[int, np.ndarray]
    accumulated_counts: np.ndarray  # [clients, classes] label totals over fusing rounds joined


class Simulation:
    """One seed's simulation; call run_round() T times or run().

    `data` can be injected to study hand-built federations; by default the
    environment is generated from (cfg, seed). Its clients must be listed
    by id, one for each of cfg.clients.
    """

    def __init__(self, cfg: SimConfig, seed: int, data: FederatedData | None = None):
        self.cfg = cfg
        self.spec = VARIANT_SPECS[cfg.variant]
        self.seed = int(seed)
        self.data = data if data is not None else build_federated_data(cfg, seed)
        if [shard.client_id for shard in self.data.clients] != list(range(cfg.clients)):
            raise InvalidInputError(f"data must hold clients 0..{cfg.clients - 1}, each at the position of its id")
        num_classes = self.data.test.num_classes
        self.train_label_counts = np.stack([label_counts(shard.train.labels, num_classes) for shard in self.data.clients])
        # the initial model; every other classifier is spawned from it and loaded
        self.template = Classifier(self.data.test.feature_dim, num_classes, (cfg.hidden_dim, cfg.hidden_dim), stream(seed, _TAG_MODEL_INIT))
        init_params = self.template.param_vector()
        persistent = self.spec.fuses and not cfg.distill.reinit_generator
        self.state = SimState(
            round_index=0,
            global_params=init_params,
            generator_params=self._fresh_generator(stream(seed, _TAG_GEN_INIT)).param_vector() if persistent else None,
            # a cluster-broadcast variant never broadcasts globally after round 0,
            # so everyone starts from the initial model
            client_feed=dict.fromkeys(range(cfg.clients), init_params) if self.spec.cluster_broadcast else {},
            accumulated_counts=np.zeros((cfg.clients, num_classes), dtype=np.int64),
        )
        self.events: list[Event] = []
        self.secure = SecParams(cfg.secure_seed if cfg.secure_seed is not None else seed)

    @property
    def global_params(self) -> np.ndarray:
        """The committed global model."""
        return self.state.global_params

    def _fresh_generator(self, rng: np.random.Generator | None) -> Generator:
        d = self.cfg.distill
        return Generator(
            noise_dim=d.noise_dim,
            num_classes=self.data.test.num_classes,
            sample_dim=self.data.test.feature_dim,
            embed_dim=d.label_embed_dim,
            hidden=(d.gen_hidden_dim, d.gen_hidden_dim),
            rng=rng,
        )

    def _train_actives(self, state: SimState, actives: np.ndarray) -> tuple[dict[int, np.ndarray], float]:
        cfg, r, clients = self.cfg, state.round_index, self.data.clients
        groups: dict[int, list[int]] = {}  # clients that take one number of steps per epoch train in lockstep
        for cid in sorted(actives.tolist(), key=lambda cid: clients[cid].train.n):  # so equal batch widths are adjacent
            groups.setdefault(-(-clients[cid].train.n // cfg.batch_size), []).append(cid)
        params_by_client, losses, diverged = {}, np.empty(cfg.clients), []
        for ids in [group[i : i + _MAX_STACK] for group in groups.values() for i in range(0, len(group), _MAX_STACK)]:
            if self.spec.cluster_broadcast:
                init = np.stack([state.client_feed[cid] for cid in ids])
            else:
                init = np.broadcast_to(state.global_params, (len(ids), state.global_params.size))
            shards = [clients[cid].train for cid in ids]
            # a full-batch client never draws its batch order, so it gets no stream
            rngs = [stream(self.seed, _TAG_LOCAL, r, cid) if shard.n > cfg.batch_size else None for cid, shard in zip(ids, shards)]
            params, losses[ids], stack_diverged = local_train(
                shards, init, self.template, cfg.local_epochs, cfg.local_lr, cfg.batch_size, cfg.weight_decay, rngs
            )
            params_by_client.update(zip(ids, params))
            diverged += [ids[i] for i in stack_diverged]
        for cid in sorted(diverged):
            self.events.append(Event(r, "local_train", f"client {cid} diverged; kept broadcast parameters"))
        kept = losses[actives][~np.isin(actives, diverged)]  # in client-id order, whatever the stacks
        return params_by_client, float(np.mean(kept)) if kept.size else float("nan")

    def _cluster_actives(self, actives: np.ndarray, params_by_client: dict[int, np.ndarray], round_index: int) -> ClusterPartition:
        ids = actives.tolist()
        rows = np.empty((len(ids), params_by_client[ids[0]].size))  # the one masked copy, in client-id order
        for i, cid in enumerate(ids):
            rows[i] = ssc_encrypt(params_by_client[cid], self.secure, round_index, cid).masked_vector
        sim = build_similarity_matrix(rows, ids)
        del rows  # AP runs beside the similarities alone
        partition = affinity_propagation(sim)
        if partition.fallback:
            self.events.append(Event(round_index, "clustering", "no exemplar emerged; fell back to a single cluster"))
        if not partition.converged and not partition.fallback:
            self.events.append(Event(round_index, "clustering", f"message passing hit the iteration cap at {partition.n_iterations}"))
        return partition

    @nn.FLOAT_POLICY
    def run_round(self) -> RoundMetrics:
        """Play one round and commit its state; a failed round commits nothing.

        Under `halt` the failure re-raises; under `skip` the round only
        advances the round index and reports the committed global model.
        Either way the failure is logged in `events`.
        """
        state = self.state
        started = time.perf_counter()
        try:
            row, self.state = self._round(state)
        except Exception as exc:
            self.events.append(Event(state.round_index, "round", f"round failed and was not committed: {exc}"))
            if self.cfg.failure_policy == "halt":
                raise
            row = RoundMetrics(
                round_index=state.round_index,
                cluster_count=1,
                global_acc=_evaluate(self.template, state.global_params, self.data.test.features, self.data.test.labels),
            )
            self.state = replace(state, round_index=state.round_index + 1)
        row.wall_ms = (time.perf_counter() - started) * 1000.0
        return row

    def _round(self, state: SimState) -> tuple[RoundMetrics, SimState]:
        """The row of round `state.round_index` and the state after it; `state` is only read."""
        cfg, spec, clients = self.cfg, self.spec, self.data.clients
        r = state.round_index
        actives = sample_active_clients(cfg.clients, cfg.act, r, self.seed)
        params_by_client, mean_local_loss = self._train_actives(state, actives)
        weighted = lambda ids: [(params_by_client[cid], clients[cid].train.n) for cid in ids]

        loss_cd = loss_cf = loss_div = float("nan")
        if spec.clusters and actives.size > 1:
            partition = self._cluster_actives(actives, params_by_client, r)
        else:
            partition = singleton_partition([int(c) for c in actives])
        cluster_models = [intra_group_aggregate(weighted(members)) for members in partition.members]
        cluster_sizes = [sum(clients[cid].train.n for cid in members) for members in partition.members]
        # one cluster passes through bit for bit, so an unclustered round is plain averaging
        new_global = global_average(list(zip(cluster_models, cluster_sizes)))
        generator_params, counts = state.generator_params, state.accumulated_counts
        if spec.fuses:
            per_client = self.train_label_counts
            if cfg.accumulate_histograms:
                # add each active client's counts every fusing round it joins,
                # then read the running totals through this round's clusters
                counts = counts.copy()
                counts[actives] += per_client[actives]
                per_client = counts
            hist = LabelHistogram(np.stack([per_client[members].sum(axis=0) for members in partition.members]))
            gls = uniform_gls(self.data.test.num_classes) if spec.uniform_gls else compute_gls(hist)
            gwf = uniform_gwf(partition.num_clusters, self.data.test.num_classes) if spec.uniform_gwf else compute_gwf(hist)
            dcfg = replace(cfg.distill, **{key: 0.0 for key in spec.zeroed})
            if generator_params is None:  # reinit_generator: a fresh one every fusing round
                generator = self._fresh_generator(stream(self.seed, _TAG_GEN_INIT, r))
            else:
                generator = self._fresh_generator(None)
                generator.load_param_vector(generator_params)
            teachers = [self.template.spawn(m) for m in cluster_models]
            student = self.template.spawn(new_global)
            result = iga_round(teachers, student, generator, gls, gwf, dcfg, stream(self.seed, _TAG_IGA, r))
            if result.diverged:
                self.events.append(Event(r, "distill", "fusion diverged; kept the plain global average"))
            else:
                new_global = student.param_vector()
                if generator_params is not None:
                    generator_params = generator.param_vector()
            loss_cd, loss_cf, loss_div = result.mean_losses()

        client_feed = state.client_feed
        if spec.cluster_broadcast:
            client_feed = dict(client_feed)
            for k, members in enumerate(partition.members):
                client_feed.update(dict.fromkeys(members, cluster_models[k]))

        global_acc = _evaluate(self.template, new_global, self.data.test.features, self.data.test.labels)
        cluster_accs = []
        for k, members in enumerate(partition.members):
            holdout_x = np.concatenate([clients[cid].holdout.features for cid in members])
            holdout_y = np.concatenate([clients[cid].holdout.labels for cid in members])
            cluster_accs.append(_evaluate(self.template, cluster_models[k], holdout_x, holdout_y))

        row = RoundMetrics(
            round_index=r,
            cluster_count=partition.num_clusters,
            global_acc=global_acc,
            cluster_accs=cluster_accs,
            loss_local=mean_local_loss,
            loss_cd=loss_cd,
            loss_cf=loss_cf,
            loss_div=loss_div,
        )
        return row, SimState(r + 1, new_global, generator_params, client_feed, counts)

    def run(self) -> list[RoundMetrics]:
        return [self.run_round() for _ in range(self.cfg.rounds)]


@dataclass
class ExperimentResult:
    """All rounds of one variant across its seeds."""

    rows_by_seed: dict[int, list[RoundMetrics]] = field(default_factory=dict)
    events_by_seed: dict[int, list[Event]] = field(default_factory=dict)


def run_experiment(cfg: SimConfig) -> ExperimentResult:
    """Run cfg.rounds rounds for every seed in cfg.seeds."""
    result = ExperimentResult()
    for seed in cfg.seeds:
        sim = Simulation(cfg, seed)
        result.rows_by_seed[seed] = sim.run()
        result.events_by_seed[seed] = sim.events
    return result
