"""Rescaling wall times to a reference host speed.

On a shared host one core's speed drifts by up to 2x within minutes, and not
uniformly: front-end-bound code (Python loops over small numpy operations)
slows far more than vectorised numpy.  Measured on an otherwise idle 2-vCPU
Intel Xeon (Sapphire Rapids) KVM guest: the same fw-rate call took 0.32 s in
one ten-minute stretch and 0.60 s in another, deconv's 5.7 s became 8.6 s,
while mmd-flow, whose time goes to vectorised tanh features, moved by about
12%.  No run length averages that away, so a workload's time is rescaled by
a kernel with the same kind of cost, timed on the same core every SAMPLE_S
during the measured interval and right after it:

    reported = wall time * REFERENCE_S[kernel] / harmonic mean of kernel times

which is the time on a host where the kernel takes its reference time.  The
speed switches between a fast and a slow mode within a second (a 4 ms
kernel's deciles ran from 3.5 ms to 8 ms in one 2 s stretch), so kernel times
are bimodal and their median jumps between the modes from call to call.
Samples fall evenly in wall time, so the mean of their inverses is the mean
speed over the interval, which is what sets the wall time.  Over nine deconv
calls the spread (standard deviation over mean) was 0.18 raw, 0.14 rescaled
by the median of a pure-Python-loop kernel sampled every 0.5 s, and 0.033
rescaled by the logsumexp kernel's harmonic mean every 0.1 s.  The logsumexp
kernel also tracked fw-rate calls (0.056, against 0.070 for the loop kernel)
and set-up (spread of medians of five interpreters 0.05, against 0.27 raw
and 0.19 for the loop kernel).

The kernels use numpy and scipy only, never wfw, so no change to wfw moves
them.
"""

import signal
import statistics
import time

import numpy as np
from scipy.special import logsumexp

#: Seconds between kernel samples taken during a measured call.
SAMPLE_S = 0.1


def vector_kernel():
    """Vectorised numpy on mid-size arrays: tanh features and their Gram products."""
    a = np.linspace(-2.0, 2.0, 400).reshape(100, 4)
    t = np.linspace(-1.0, 1.0, 256).reshape(64, 4)
    acc = 0.0
    for _ in range(30):
        f = np.tanh(a @ t.T)
        acc += float((f @ f.T).sum())
        acc += float(np.exp(-(f * f)).sum())
    return acc


def logsumexp_kernel():
    """Sinkhorn-like sweeps of scipy's logsumexp over a 50 x 50 cost, as in entropic OT."""
    x = np.linspace(-1.0, 1.0, 100).reshape(50, 2)
    cost = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    f = np.zeros(50)
    for _ in range(10):
        g = -0.1 * logsumexp((f[:, None] - cost) / 0.1, axis=0)
        f = -0.1 * logsumexp((g[None, :] - cost) / 0.1, axis=1)
    return float(f.sum())


KERNELS = {
    "vector": vector_kernel,
    "logsumexp": logsumexp_kernel,
}

# The 20th percentile of each kernel's time over 30 s on the host above: close
# to its time on an uncontended core.
REFERENCE_S = {"vector": 0.0022, "logsumexp": 0.0028}


def kernel_times(kind, repeats=5):
    """Wall times of `repeats` runs of a kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


class Sampler:
    """Kernel timings during a measured interval, from a SIGALRM handler.

    The handler runs between bytecodes of the measured code, on the same
    core and under the same contention.  `spent` is the time the samples
    took, which the caller subtracts from the interval's wall time.  If
    `tag` is given, ``tag(frame)`` of the interrupted frame is stored with
    each sample in `tags`, so samples can be told apart by where they fell.
    """

    def __init__(self, kind, tag=None):
        self.kind = kind
        self.tag = tag
        self.samples = []
        self.tags = []
        self._previous = None

    def _sample(self, signum, frame):
        if self.tag is not None:
            self.tags.append(self.tag(frame))
        start = time.perf_counter()
        KERNELS[self.kind]()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self):
        return sum(self.samples)

    def scale(self):
        """REFERENCE_S over the harmonic mean of the kernel times, with five more taken now."""
        times = self.samples + kernel_times(self.kind)
        return REFERENCE_S[self.kind] / statistics.harmonic_mean(times)


#: Fewest kernel samples a step's local host speed is estimated from.
LOCAL_SAMPLES = 5


def scaled_steps(kind, wall_ms, samples, steps, call_scale):
    """Outer-step times rescaled by the host speed around each step.

    `samples` are kernel times taken during a call and `steps` the 0-based
    step each fell in (None outside the steps).  A step loses the time of
    its own samples and is rescaled by the harmonic mean of the samples of
    the nearest steps, widened to at least LOCAL_SAMPLES of them.  The call's
    mean speed misprices steps: the median of a mix of fast and slow steps
    is a fast one, which a call-wide scale over-corrects the more of the call
    is slow.  With fewer than LOCAL_SAMPLES samples in all steps (steps
    shorter than SAMPLE_S, as on fw-rate) every step takes `call_scale`.
    """
    spent = [0.0] * len(wall_ms)
    by_step = [[] for _ in wall_ms]
    for t, k in zip(samples, steps):
        if k is not None and 0 <= k < len(wall_ms):
            spent[k] += t
            by_step[k].append(t)
    within = sum(len(b) for b in by_step)
    out = []
    for k, wall in enumerate(wall_ms):
        scale = call_scale
        if within >= LOCAL_SAMPLES:
            near, reach = list(by_step[k]), 0
            while len(near) < LOCAL_SAMPLES:
                reach += 1
                for j in (k - reach, k + reach):
                    if 0 <= j < len(wall_ms):
                        near.extend(by_step[j])
            scale = REFERENCE_S[kind] / statistics.harmonic_mean(near)
        out.append((wall - 1000.0 * spent[k]) * scale)
    return out
