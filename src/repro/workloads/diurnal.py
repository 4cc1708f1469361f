"""Diurnal, bursty multi-tenant traffic: the shape real fleets serve.

The synthetic streams in :mod:`repro.workloads.synthetic` offer load at
a *fixed* rate — fine for saturation microbenchmarks, useless for
studying graceful degradation, where what matters is how the system
behaves while the offered load moves.  This module models the three
phenomena a day of production traffic is made of:

* **regional day/night waves** — each tenant belongs to a region whose
  load follows a sinusoid over the simulated day, phase-shifted per
  region so the fleet's aggregate never quite sleeps;
* **flash crowds** — Poisson-arriving surges that multiply one tenant's
  rate and decay exponentially (a product launch, a celebrity link);
* **heavy-tailed tenant sizes** — tenant base rates follow a Zipf law,
  so a handful of tenants dominate and the long tail is wide.

Everything is derived from one seed through :func:`repro.sim.rng.derive`
(one child stream per concern), so two runs with the same seed produce
byte-identical traffic — the property the SLO bench's with/without
controller comparison and the checker's replays both rest on.

The model itself is pure (``rate_at(tenant, t)`` is a closed-form
function of precomputed crowds); only the *generator* processes draw
interarrival jitter, each from its own derived stream.
"""

import math

from repro.sim.rng import derive

TWO_PI = 2.0 * math.pi

# Tenants are spread round-robin over REGIONS evenly phase-shifted
# sinusoids of depth DIURNAL_DEPTH (0 = flat, 1 = full day/night swing).
REGIONS = 3
DIURNAL_DEPTH = 0.6
ZIPF_ALPHA = 1.1  # tenant base-rate skew
CROWD_DECAY_FRACTION = 0.04  # mean flash-crowd decay, as a share of the day
MIN_RATE_FRACTION = 0.05  # a tenant never drops below this share of its base


def zipf_weights(count, alpha=1.1):
    """Normalized Zipf(alpha) weights for ``count`` tenants, largest first.

    ``alpha`` around 1 gives the classic "few whales, long tail" shape;
    weights sum to 1.0 so they distribute a fleet-wide base rate.
    """
    if count < 1:
        raise ValueError("need at least one tenant")
    raw = [1.0 / (rank ** alpha) for rank in range(1, count + 1)]
    total = sum(raw)
    return [value / total for value in raw]


class FlashCrowd:
    """One surge: starts at ``at_ns``, multiplies a tenant's rate by
    ``1 + amplitude * exp(-(t - at_ns) / decay_ns)`` while active."""

    __slots__ = ("tenant_index", "at_ns", "amplitude", "decay_ns")

    def __init__(self, tenant_index, at_ns, amplitude, decay_ns):
        self.tenant_index = tenant_index
        self.at_ns = at_ns
        self.amplitude = amplitude
        self.decay_ns = decay_ns

    def multiplier(self, now_ns):
        if now_ns < self.at_ns:
            return 1.0
        age = now_ns - self.at_ns
        if age > 8.0 * self.decay_ns:  # fully decayed; skip the exp()
            return 1.0
        return 1.0 + self.amplitude * math.exp(-age / self.decay_ns)


class DiurnalTrafficModel:
    """Deterministic per-tenant offered rate over one compressed day.

    ``base_rate_per_ns`` is the fleet-wide mean transaction rate; each
    tenant's share of it is Zipf-weighted, and its region's sinusoid
    (``REGIONS``, ``DIURNAL_DEPTH``) modulates it over the day.  Flash
    crowds arrive Poisson at ``crowd_rate_per_day`` per tenant-day,
    each with amplitude and decay drawn from the crowd stream.

    The model never touches the engine: ``rate_at`` is a pure function,
    so probes, benches, and the checker see identical traffic.
    """

    def __init__(self, seed, tenants, day_ns, base_rate_per_ns,
                 crowd_rate_per_day=1.0, crowd_amplitude=6.0):
        if tenants < 1:
            raise ValueError("need at least one tenant")
        if day_ns <= 0:
            raise ValueError("the day must have positive length")
        if base_rate_per_ns <= 0:
            raise ValueError("base rate must be positive")
        self.seed = seed
        self.tenants = tenants
        self.day_ns = float(day_ns)
        self.base_rate_per_ns = float(base_rate_per_ns)
        self.weights = zipf_weights(tenants, ZIPF_ALPHA)
        self.crowds = self._spawn_crowds(crowd_rate_per_day, crowd_amplitude)

    def _spawn_crowds(self, rate_per_day, amplitude):
        """Poisson crowd arrivals per tenant, exponentially spaced."""
        crowds = []
        for tenant in range(self.tenants):
            rng = derive(self.seed, "flash-crowds", tenant)
            if rate_per_day <= 0:
                continue
            mean_gap = self.day_ns / rate_per_day
            at = rng.exponential_ns(mean_gap)
            while at < self.day_ns:
                crowds.append(FlashCrowd(
                    tenant, at,
                    amplitude=amplitude * (0.5 + rng.random()),
                    decay_ns=self.day_ns * CROWD_DECAY_FRACTION
                    * (0.5 + rng.random()),
                ))
                at += rng.exponential_ns(mean_gap)
        crowds.sort(key=lambda crowd: (crowd.at_ns, crowd.tenant_index))
        return crowds

    def region_of(self, tenant_index):
        return tenant_index % REGIONS

    def diurnal_factor(self, tenant_index, now_ns):
        """The tenant's region sinusoid at ``now_ns``, in (0, 1+depth]."""
        phase = TWO_PI * self.region_of(tenant_index) / REGIONS
        wave = math.sin(TWO_PI * (now_ns % self.day_ns) / self.day_ns
                        + phase)
        return 1.0 + DIURNAL_DEPTH * wave

    def crowd_factor(self, tenant_index, now_ns):
        factor = 1.0
        for crowd in self.crowds:
            if crowd.tenant_index == tenant_index:
                factor *= crowd.multiplier(now_ns)
        return factor

    def rate_at(self, tenant_index, now_ns):
        """Offered transactions per ns for one tenant at one instant."""
        base = self.base_rate_per_ns * self.weights[tenant_index]
        rate = (base * self.diurnal_factor(tenant_index, now_ns)
                * self.crowd_factor(tenant_index, now_ns))
        floor = base * MIN_RATE_FRACTION
        return max(rate, floor)


def bursty_tenant_stream(engine, submit, model, tenant_index, duration_ns):
    """Drive one tenant's load through ``submit`` (a sim process).

    ``submit()`` must be a generator function executing one transaction
    (e.g. a closure over :func:`repro.cluster.fleet.run_shard_body`);
    it is driven to completion — closed-loop per tenant, so an overloaded
    node back-pressures its tenants instead of queueing unboundedly —
    while the *interarrival gaps* track the model's time-varying rate:
    each gap is exponential with mean ``1 / rate_at(tenant, now)``,
    re-sampled at the instant the previous transaction finished, which
    is how a flash crowd raises pressure mid-stream.

    Returns the completion event; its value is the tenant's stats dict.
    """
    rng = derive(model.seed, "bursty-stream", tenant_index)
    stats = {"offered": 0, "completed": 0, "tenant": tenant_index}

    def _proc():
        deadline = engine.now + duration_ns
        while engine.now < deadline:
            rate = model.rate_at(tenant_index, engine.now)
            gap = rng.exponential_ns(1.0 / rate)
            yield engine.timeout(min(gap, max(deadline - engine.now, 1.0)))
            if engine.now >= deadline:
                break
            stats["offered"] += 1
            yield from submit()
            stats["completed"] += 1
        return stats

    return engine.process(_proc(), name=f"bursty-tenant-{tenant_index}")
