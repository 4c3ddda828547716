"""Synthetic task environments with a planted similarity structure.

Tasks are drawn around a planted center: each task's population minimizer is
the center plus an isotropic Gaussian offset scaled so its expected squared
norm is similarity_v**2 before projection. Each task's m samples then scatter
around the minimizer and come back as arrays (losses.TaskSamples): quadratic
anchors, or logistic features plus labels. Everything is driven by named
substreams of a single master seed, so any piece of a run can be regenerated
independently. A pass's streams are seeded in one batch (substreams),
bit-identical to separate substream calls. The distribution is the
config's calibration.Environment, whose planted center and domain center
are tuples of Python floats. A task is only its minimizer; the sample model
is the environment's. A quadratic task draws anchor rows only up to the
last one its pass keeps; the per-task loop only draws the offsets into the
pass's step-major block, on two threads for a large pass (_split), each
task from its own generator into its own columns. The shift by the
minimizers and each task's reach are whole-pass array operations, and only
the tasks whose anchors geometry.never_rescaled does not certify inside the
ball are projected, since elsewhere that projection could move no row. Risk
is scored for a sequence of tasks at once, in one call for either family:
quadratic tasks in closed form, logistic tasks with the label integrated out
exactly, over one feature sample that every task and every scored point
share.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import zlib

import numpy as np

from .calibration import Environment, Record, _count
from .geometry import (RowScratch, as_batch, coordinate_top, dist_sq,
                       never_rescaled, project_in_place)
from .losses import (ExcessWorkspace, TaskSamples, logistic_excess,
                     quadratic_value, sigmoid)

EnvSpec = Environment  # the distribution's earlier run-path name

_SEED_MASK = (1 << 64) - 1
_WORD_MASK = (1 << 32) - 1


def _mix_tags(master_seed: int, tags):
    """The seed and each tag as a 64-bit value (strings by crc32), in the
    uint32 words SeedSequence would make of that list of ints itself: each
    value splits into little-endian 32-bit words, and 0 is the one word 0."""
    words = []
    for tag in (int(master_seed), *tags):
        if isinstance(tag, str):
            value = zlib.crc32(tag.encode("utf-8"))
        else:
            value = int(tag) & _SEED_MASK
        words.append(value & _WORD_MASK)
        if value > _WORD_MASK:
            words.append(value >> 32)
    return np.array(words, dtype=np.uint32)


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for (master_seed, *tags).

    Tags may be strings (hashed via crc32, stable across platforms) or
    integers. The same (seed, tags) always yields the same stream; distinct
    tag tuples yield statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(_mix_tags(master_seed, tags)))


def derive_seed(master_seed: int, *tags) -> int:
    """Collapse (master_seed, *tags) to a fresh 64-bit master seed."""
    seq = np.random.SeedSequence(_mix_tags(master_seed, tags))
    return int(seq.generate_state(1, np.uint64)[0])


# numpy's SeedSequence with its default pool of 4 words, as numpy documents
# it (numpy/random/bit_generator.pyx): every hashmix steps a hash constant
# through a fixed sequence, whatever the data, so many seeds mix in step
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (start, multiplier) while mixing entropy
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same in generate_state
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hash_sequence(start: int, mult: int, count: int) -> list[int]:
    values = [start]
    for _ in range(count):
        values.append(values[-1] * mult & _WORD_MASK)
    return values


@functools.cache
def _hash_constants(width: int):
    """SeedSequence's (xor, multiply) hash constants for entropy of width >=
    4 words, one (2, 4) uint32 pair per step of _seed_states, stacked
    (width + 1, 2, 4), then generate_state(4, uint64)'s (2, 8) pair. Step 0
    hashes the pool's four words; step w + 1 hashes word w into each pool
    slot it mixes into."""
    a = _hash_sequence(*_HASH_A, 4 * width)
    steps = [(a[:4], a[1:5])]
    for w in range(width):
        if w < 4:  # pool word w mixes into the other three slots
            k = 4 + 3 * w
            xor, mul = [0] * 4, [0] * 4
            for j, slot in enumerate(s for s in range(4) if s != w):
                xor[slot], mul[slot] = a[k + j], a[k + j + 1]
        else:  # entropy word w mixes into all four
            xor, mul = a[4 * w:4 * w + 4], a[4 * w + 1:4 * w + 5]
        steps.append((xor, mul))
    b = _hash_sequence(*_HASH_B, 8)
    return np.array(steps, dtype=np.uint32), np.array([b[:8], b[1:]], dtype=np.uint32)


def _hashmix(words, xor, mul):
    mixed = words ^ xor
    mixed *= mul
    mixed ^= mixed >> 16
    return mixed


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of the
    uint32 entropy (seeds, width >= 4), shaped (seeds, 4). Rows of fewer
    words are padded with zeros to 4, which SeedSequence does itself."""
    width = entropy.shape[1]
    steps, out = _hash_constants(width)
    pool = _hashmix(entropy[:, :4], *steps[0])
    for w in range(width):
        source = pool if w < 4 else entropy
        mixed = pool * _MIX_L
        mixed -= _hashmix(source[:, w, None], *steps[w + 1]) * _MIX_R
        mixed ^= mixed >> 16
        if w < 4:
            mixed[:, w] = pool[:, w]  # a pool word does not mix into itself
        pool = mixed
    state = _hashmix(np.concatenate((pool, pool), axis=1), *out)
    # SeedSequence reads pairs of 32-bit words as little-endian 64-bit ones
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_state_class():
    """The class that stands in for one stream's SeedSequence where PCG64
    seeds from it: generate_state(4, np.uint64) returns the words
    _seed_states computed. Made on first use, not at import, so that
    numpy.random stays out of a start-up that draws nothing; a subclass of
    ISeedSequence, not a registered one, since an ABC caches the answer
    for a subclass and not for a registered class."""
    from numpy.random.bit_generator import ISeedSequence

    class _SeedState(ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes np.uint64 itself, which spares the dtype lookup
            if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
                raise ValueError("only generate_state(4, np.uint64) is precomputed")
            return self._words

    return _SeedState


def substreams(master_seed: int, *tags, count: int):
    """Lazily yield substream(master_seed, *tags, i) for i in range(count),
    bit for bit.

    A generator function: the first next() seeds every stream of the batch
    at once, by numpy's SeedSequence arithmetic on uint32 arrays, and each
    next() then builds one generator; nothing runs if none is asked for.
    """
    count = _count("count", count, least=0)
    if count > 1 << 32:
        raise ValueError(f"count must be at most 2**32, got {count}")
    seed_state = _seed_state_class()
    prefix = _mix_tags(master_seed, tags)
    # row i is _mix_tags(master_seed, tags + (i,)): an index below 2**32 is
    # the one word i
    entropy = np.zeros((count, max(len(prefix) + 1, 4)), dtype=np.uint32)
    entropy[:, :len(prefix)] = prefix
    entropy[:, len(prefix)] = np.arange(count)
    for words in _seed_states(entropy):
        yield np.random.Generator(np.random.PCG64(seed_state(words)))


def _bounded_indices(raw, m: int, n: int):
    """Generator.integers(0, m, size=n) for each row of raw (tasks, k), the
    first k >= n / 2 raw 64-bit words of each task's PCG64 stream: the
    indices (tasks, n) int64, and a flag per task whose row is not its draw.

    For m in [2, 2**32) numpy draws by Lemire's multiply-shift method on
    32-bit outputs, and PCG64 gives each word's low half, then its high
    half: output u draws (u m) >> 32, unless u m mod 2**32 falls below
    (2**32 - m) mod m, where numpy draws again, from words past the ones
    given; such a task is flagged. So is every task for m outside that
    range, where numpy takes other routes. The standard normals a stream
    draws next read whole words, so an unflagged task's continue as they
    would after its integers call."""
    if not 2 <= m < 1 << 32:
        return np.zeros((len(raw), n), dtype=np.int64), np.ones(len(raw), dtype=bool)
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :n]
    redraw = (np.multiply(halves, np.uint32(m)) < ((1 << 32) - m) % m).any(axis=1)
    indices = halves.astype(np.uint64)
    indices *= np.uint64(m)
    indices >>= np.uint64(32)
    return indices.view(np.int64), redraw


class TaskSpec(Record):
    """One drawn task: its population minimizer. The sample model is the
    environment's. Not serialized; regenerate from the seed."""

    theta_star: np.ndarray


def sample_task(spec: Environment, rng: np.random.Generator) -> TaskSpec:
    """Draw a task minimizer: center + z, z ~ N(0, (V^2/d) I), projected
    onto the domain.

    V == 0 yields the planted center exactly; the Gaussian draw still happens
    so stream layout does not depend on V. The batch of one of draw_tasks.
    """
    return TaskSpec(theta_star=_draw_minimizers(spec, (rng,))[0])


def _draw_minimizers(spec: Environment, rngs) -> np.ndarray:
    """One minimizer per generator, shaped (tasks, d), projected in place."""
    z = np.array([rng.normal(0.0, 1.0, size=spec.dim) for rng in rngs])
    scale = spec.similarity_v / math.sqrt(spec.dim)
    stars = spec.planted_center + scale * z.reshape(-1, spec.dim)
    project_in_place(stars, spec.domain, RowScratch(stars.shape))
    return stars


def _sphere_features(spec: Environment, count: int, rng: np.random.Generator):
    """count features (count, d) uniform on the sphere of radius
    feature_norm."""
    features = rng.standard_normal((count, spec.dim))
    # np.linalg.norm's formula for real rows, without its conj() copy
    norms = np.sqrt(np.add.reduce(features * features, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    features *= spec.feature_norm
    features /= norms
    return features


def _logistic_draw(spec: Environment, theta_star, count: int, rng: np.random.Generator):
    """count features uniform on the sphere of radius feature_norm, with
    labels in {-1.0, +1.0} drawn from the logistic model at theta_star."""
    features = _sphere_features(spec, count, rng)
    labels = np.where(rng.random(count) < sigmoid(features @ theta_star), 1.0, -1.0)
    return features, labels


def generate_losses(task: TaskSpec, spec: Environment,
                    rng: np.random.Generator) -> TaskSamples:
    """Draw the task's m samples as arrays, from the environment's sample
    model around the task's minimizer.

    Quadratic: anchors (m, d) are theta_star + w, w ~ N(0, s^2 I) with
    s = sample_noise_std, projected onto the domain, so the empirical
    minimizer is unbiased for theta_star up to projection. Logistic:
    features (m, d) uniform on the sphere of radius feature_norm, labels (m,)
    in {-1, +1} from the logistic model at theta_star. The batch of one of
    draw_tasks.
    """
    batch = _draw_samples(spec, task.theta_star[None], (rng,), None, None)
    return batch.take((slice(None), 0))


# a noisy quadratic pass is drawn on two threads (_split) when it has at
# least _SPLIT_TASKS tasks that draw at least _SPLIT_NORMALS normals each on
# average: numpy's normal fill releases the GIL. On a 2-CPU Xeon (numpy
# 2.4), whole draw_tasks calls of d = 2 tasks, split over inline, read 0.92
# at 100 tasks of 1024 normals, 0.79 at 100 of 2048 and 0.73 at 64 of 3800,
# where a thread's start and join (about 0.1 ms) is small next to the fill;
# but 1.09 at 8 tasks of 3800 and 0.84 at 16. Fewer normals a task leave
# each task's GIL-held work (about 2 us: the normal call and the strided
# write) large next to its fill
_SPLIT_NORMALS = 2048
_SPLIT_TASKS = 16


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(items, count: int, body) -> None:
    """body(lo, hi, part) for the count items of an iterable, part being
    items lo..hi-1: the upper half on one worker thread, which takes its
    items from the iterable itself, and the lower half, listed first, on
    the calling thread. The worker is joined whatever happens, and its
    exception is raised in the caller."""
    items, half = iter(items), count // 2
    lower = list(itertools.islice(items, half))
    failed = []

    def upper():
        try:
            body(half, count, items)
        except BaseException as exc:  # re-raised in the caller below
            failed.append(exc)

    worker = threading.Thread(target=upper, name="dpmeta-draw")
    worker.start()
    try:
        body(0, half, lower)
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _draw_samples(spec: Environment, theta_stars, rngs, keep, arms) -> TaskSamples:
    """draw_tasks' samples, validated once. rngs is iterated only when the
    sample model draws, so a noise-free quadratic pass creates no generator.

    A noisy quadratic pass draws each task's offsets into its own columns of
    the step-major block, allocated first: body(lo, hi, part) draws tasks
    lo..hi-1 from their generators part, on two threads (_split) for a large
    pass in a process that may use two CPUs, else inline. Each task reads
    only its own generator and writes only its own columns, so the block is
    the same bits either way. The shift by the minimizers, the reach
    certificate and the projection then act on the whole pass."""
    m, dim = spec.samples_per_task, spec.dim
    tasks = len(theta_stars)
    rows = [slice(None)] * tasks if keep is None else np.asarray(keep)
    count = m if keep is None else rows.shape[-1]
    if keep is not None and (rows.shape != (tasks, count) or count < 1
                             or rows.min() < 0 or rows.max() >= m):
        raise ValueError(f"keep must be indices into the {m} samples, shaped "
                         f"({tasks}, k >= 1), got {rows.shape}")
    if arms is not None and spec.loss_family != "quadratic":
        raise ValueError("only quadratic samples take an arms axis")
    # every arm's rows are written from the same draws, not copied from arm
    # 0 at the end, where numpy would first copy arm 0 (the two share a
    # buffer); without arms, the one copy's axis is dropped at the end
    block = np.empty((count, tasks, 1 if arms is None else _count("arms", arms), dim))
    points = block[:, :, 0]
    if spec.loss_family == "logistic":
        labels = np.empty((count, tasks))
        for t, rng in zip(range(tasks), rngs, strict=True):
            features, task_labels = _logistic_draw(spec, theta_stars[t], m, rng)
            points[:, t] = features[rows[t]]
            labels[:, t] = task_labels[rows[t]]
            # freed now, not while the next task draws its own
            del features, task_labels
        return TaskSamples(points, labels=labels)
    if spec.sample_noise_std == 0.0:
        # a minimizer projected onto the sphere can round an ulp outside it,
        # so its anchors are projected again, as any anchor is
        anchors = theta_stars.copy()
        project_in_place(anchors, spec.domain, RowScratch(anchors.shape))
        block[...] = anchors[:, None]
    else:
        # task t draws its rows up to the last one it keeps: the normal
        # stream is sequential and nothing is drawn after it, so the rows
        # kept are the same bits
        drawn = [m] * tasks if keep is None else (rows.max(axis=1) + 1).tolist()

        def body(lo, hi, part):
            for t, rng in zip(range(lo, hi), part, strict=True):
                block[:, t] = rng.normal(0.0, spec.sample_noise_std,
                                         size=(drawn[t], dim))[rows[t], None]

        if (tasks >= _SPLIT_TASKS and sum(drawn) * dim >= _SPLIT_NORMALS * tasks
                and _cpus() > 1):
            _split(rngs, tasks, body)
        else:
            body(0, tasks, rngs)
        # anchors theta* + w lie within ||theta* - center|| + sqrt(d) max|w|
        # of the center; where that is certified inside the ball, their
        # projection could move no row and is skipped
        dom = spec.domain
        # max|w| per task, from arm 0's offsets' per-coordinate box: the
        # temporaries are (tasks, d), 1/k of the anchors
        box = np.maximum(np.maximum.reduce(points, axis=0),
                         -np.minimum.reduce(points, axis=0))
        top = np.maximum.reduce(box, axis=-1)
        reaches = (np.sqrt(dist_sq(theta_stars, dom.center))
                   + math.sqrt(dim) * top).tolist()
        center_top = coordinate_top(dom.center)
        block += theta_stars[:, None]
        # only the tasks left uncertified are projected, one at a time, in
        # arm 0, which the other arms then copy
        scratch, others = RowScratch((count, dim)), block[:, :, 1:]
        for t, reach in enumerate(reaches):
            if not never_rescaled(reach, dom.radius, center_top + reach, dim, 1):
                project_in_place(points[:, t], dom, scratch)
                others[:, t] = points[:, t, None]
    return TaskSamples(points if arms is None else block, curvature=spec.curvature)


def draw_tasks(spec: Environment, task_rngs, sample_rngs, keep, arms=None):
    """Draw a pass of tasks: the minimizers (tasks, d), one per generator of
    task_rngs, and their samples as one step-major TaskSamples (k, tasks, d),
    task t's from the t-th generator of sample_rngs. keep is None, which
    keeps all m samples, or indices shaped (tasks, k): task t keeps its
    samples keep[t], in that order, repeats allowed. With arms, a count,
    quadratic samples come shaped (k, tasks, arms, d), every arm's rows the
    same anchors, so a multi-arm pass steps on them without a second copy.

    Each generator is consumed as sample_task or generate_losses consumes
    it, up to the last sample kept, and projection acts row by row, so
    every value is bit-identical to those calls task by task. The
    minimizers are projected in one call; the anchors are shifted and
    certified once for the pass, and each uncertified task's anchors are
    projected in place, so no temporary outgrows one task's draw or the
    pass's (tasks, d) minimizers. Each sequence of generators is iterated
    once, so either may be lazy.
    """
    theta_stars = _draw_minimizers(spec, task_rngs)
    return theta_stars, _draw_samples(spec, theta_stars, sample_rngs, keep, arms)


def population_risk_gap(spec: Environment, theta_stars, theta,
                        mc_samples: int | None = None,
                        rng: np.random.Generator | None = None):
    """Population excess risk of theta, shaped (..., tasks, d), on tasks of
    the environment spec with minimizers theta_stars (tasks, d); the result
    is shaped (..., tasks). One call serves either family. Quadratic tasks
    use the exact closed form losses.quadratic_value(theta, theta*,
    curvature) (anchor noise only shifts the risk by a constant, which
    cancels in the gap) and never touch mc_samples or rng.

    Logistic tasks integrate the label out exactly: given a feature x, the
    expected loss gap is losses.logistic_excess of the margins <x, theta>
    and <x, theta*>, a Bernoulli KL divergence, so no estimate is negative
    and each is exactly zero at theta == theta*. The feature expectation is
    a Monte Carlo mean over one block of mc_samples features drawn from the
    generator rng, shared by every task and every point. Tasks are scored
    one at a time in one workspace allocated per call, which every task
    overwrites: the (points + 1, mc_samples) margins, written by one matrix
    product from a (points + 1, d) row buffer, and a losses.ExcessWorkspace
    for them, so no array is allocated per task. Column e is exactly what a
    call for task e alone with an identically seeded generator returns.
    """
    stars = as_batch(theta_stars, spec.dim)
    thetas = as_batch(theta, spec.dim)
    if stars.ndim != 2 or thetas.shape[-2:] != stars.shape:
        raise ValueError(f"expected minimizers (tasks, {spec.dim}) and theta (..., "
                         f"tasks, {spec.dim}), got {stars.shape} and {thetas.shape}")
    if spec.loss_family == "quadratic":
        return quadratic_value(thetas, stars, spec.curvature)
    if mc_samples is None or rng is None:
        raise ValueError("logistic risk gaps need mc_samples and an rng")
    mc_samples = _count("mc_samples", mc_samples, least=2)
    # the features as columns (d, mc_samples), so that one product per task
    # gives the margins of its minimizer (row 0) and of each of its points
    columns = np.ascontiguousarray(_sphere_features(spec, mc_samples, rng).T)
    points = np.moveaxis(thetas, -2, 0).reshape(len(stars), -1, spec.dim)
    gaps = np.empty(points.shape[:2])
    # one workspace for every task: row 0 of rows and of margins is the
    # minimizer's, the others are its points'
    rows = np.empty((points.shape[1] + 1, spec.dim))
    margins = np.empty((len(rows), columns.shape[1]))
    star_margins, point_margins = margins[0], margins[1:]
    work = ExcessWorkspace(point_margins.shape, star_margins.shape)
    for e, star in enumerate(stars):
        rows[0] = star
        rows[1:] = points[e]
        np.matmul(rows, columns, out=margins)
        np.add.reduce(logistic_excess(point_margins, star_margins, work),
                      axis=-1, out=gaps[e])
    # the means, divided as np.mean divides its sums
    gaps /= margins.shape[1]
    return np.moveaxis(gaps.reshape(len(stars), *thetas.shape[:-2]), 0, -1)


def empirical_task_variance(theta_stars, reference) -> float:
    """Mean squared distance of task minimizers, shaped (tasks, d), from a
    reference point: the realized analogue of similarity_v**2."""
    if len(theta_stars) == 0:
        raise ValueError("empirical_task_variance needs at least one minimizer")
    return float(np.mean(dist_sq(reference, np.asarray(theta_stars))))
