"""Deterministic fault injection ("chaos") for the execution engine.

The crash-safety claims of the cache and ledger layers — atomic publish,
corrupt-archive-as-miss, merge-on-failure — are only claims until a test
actually kills a worker mid-cell or tears an archive mid-publish.  This
module injects exactly those faults, **deterministically**: every
decision is a pure function of ``(seed, site, cell key, attempt)``, so a
chaos run is reproducible bit for bit and a retried cell can be made to
succeed (the attempt number changes the draw).

Injection sites
---------------
- ``worker.exception`` — raise :class:`ChaosError` (a *transient*,
  retryable failure) at the top of a worker cell;
- ``worker.crash`` — hard-kill the worker with ``os._exit`` (no cleanup,
  no result; exercises crash detection and worker replacement).  Never
  fires in the chaos owner process, so enabling chaos in a test or a
  serial run cannot kill the test runner itself;
- ``worker.delay`` — sleep ``delay_seconds`` before running the cell
  (exercises deadlines and hung-worker replacement);
- ``publish.torn`` — truncate an archive *after* it was atomically
  published (simulates a torn copy / lost-page crash; exercises
  corrupt-archive-as-miss recovery);
- ``lock.hold`` — hold an acquired file lock for ``lock_hold_seconds``
  (exercises lock starvation and ``LockTimeout`` retry classification).

Opt-in via ``chaos.configure(...)`` or the ``REPRO_CHAOS`` environment
variable: ``1`` enables a mild default profile; a spec string such as
``"exception_rate=0.5,crash_rate=0.1,seed=7,only_keys=wt|ft"`` sets
fields explicitly.  ``configure`` exports the spec back into the
environment so forked *and* spawned workers inherit the same faults.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.resilience.retry import stable_unit

ENV_VAR = "REPRO_CHAOS"
OWNER_ENV = "REPRO_CHAOS_OWNER"

_FALSY = ("", "0", "false", "off", "no")
_TRUTHY = ("1", "true", "on", "yes")


class ChaosError(RuntimeError):
    """An injected transient worker failure (classified retryable)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates and scoping for one chaos run.

    Rates are per-decision probabilities in [0, 1]; a rate of 1.0 fires
    on every eligible decision.  ``only_keys`` restricts injection to
    cells whose key contains any of the substrings; ``first_attempts_only
    > 0`` injects worker faults only while ``attempt <`` that bound, so a
    retried cell deterministically recovers; ``max_per_key > 0`` caps
    file-site injections (torn writes, lock holds) per (site, key) per
    process, so a recovery path re-publishing the same artifact is not
    re-torn forever.
    """

    exception_rate: float = 0.0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.5
    torn_write_rate: float = 0.0
    lock_hold_rate: float = 0.0
    lock_hold_seconds: float = 0.25
    lease_kill_rate: float = 0.0
    seed: int = 0
    only_keys: tuple[str, ...] = ()
    first_attempts_only: int = 0
    max_per_key: int = 1

    def __post_init__(self):
        for name in (
            "exception_rate", "crash_rate", "delay_rate",
            "torn_write_rate", "lock_hold_rate", "lease_kill_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    def active(self) -> bool:
        return any(
            (
                self.exception_rate,
                self.crash_rate,
                self.delay_rate,
                self.torn_write_rate,
                self.lock_hold_rate,
                self.lease_kill_rate,
            )
        )

    # ------------------------------------------------------ env transport
    def to_spec(self) -> str:
        """Serialize to the ``REPRO_CHAOS`` spec-string format."""
        default = ChaosConfig()
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value == getattr(default, f.name):
                continue
            if f.name == "only_keys":
                value = "|".join(value)
            parts.append(f"{f.name}={value}")
        # An all-default (inactive) config must not serialize to a bare
        # truthy flag, which would deserialize as DEFAULT_PROFILE.
        return ",".join(parts) or f"seed={self.seed}"

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosConfig":
        """Parse a ``REPRO_CHAOS`` value: truthy flag or ``k=v,...`` spec."""
        spec = spec.strip()
        if spec.lower() in _TRUTHY:
            return DEFAULT_PROFILE
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad {ENV_VAR} entry {part!r}: expected name=value"
                )
            name, _, raw = part.partition("=")
            name = name.strip()
            if name not in fields:
                raise ValueError(
                    f"unknown {ENV_VAR} field {name!r} "
                    f"(have {sorted(fields)})"
                )
            if name == "only_keys":
                kwargs[name] = tuple(k for k in raw.split("|") if k)
            elif name in ("seed", "first_attempts_only", "max_per_key"):
                kwargs[name] = int(raw)
            else:
                kwargs[name] = float(raw)
        return cls(**kwargs)


#: What a bare ``REPRO_CHAOS=1`` means: transient worker exceptions plus
#: occasional torn archives — enough to exercise retry and corrupt-as-miss
#: paths everywhere without hard-killing unsuspecting processes.
DEFAULT_PROFILE = ChaosConfig(exception_rate=0.15, torn_write_rate=0.1, seed=1)


class _ChaosState:
    """Per-process chaos state: parsed config + per-(site, key) counters."""

    __slots__ = ("config", "pid", "counts")

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.pid = os.getpid()
        self.counts: dict[tuple[str, str], int] = {}


_state: _ChaosState | None = None


def _get_state() -> _ChaosState | None:
    """Active chaos state, re-read from the environment when unset or
    after a fork (a forked worker gets fresh per-key counters)."""
    global _state
    if _state is not None and _state.pid == os.getpid():
        return _state
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw.lower() in _FALSY:
        _state = None
        return None
    _state = _ChaosState(ChaosConfig.from_spec(raw))
    return _state


def configure(config: ChaosConfig | None = None, **fields) -> ChaosConfig:
    """Enable chaos for this process tree and return the active config.

    Accepts a full :class:`ChaosConfig` or its fields as keywords.  The
    spec is exported to ``REPRO_CHAOS`` (and this pid to
    ``REPRO_CHAOS_OWNER``) so worker processes reconstruct the identical
    fault plan; crash injection is suppressed in the owner process.
    """
    global _state
    if config is None:
        config = ChaosConfig(**fields)
    elif fields:
        config = dataclasses.replace(config, **fields)
    os.environ[ENV_VAR] = config.to_spec()
    os.environ[OWNER_ENV] = str(os.getpid())
    _state = _ChaosState(config)
    return config


def disable() -> None:
    """Disable chaos and clear the exported environment."""
    global _state
    _state = None
    os.environ.pop(ENV_VAR, None)
    os.environ.pop(OWNER_ENV, None)


def enabled() -> bool:
    state = _get_state()
    return state is not None and state.config.active()


def current() -> ChaosConfig | None:
    """The active config, or ``None`` when chaos is off."""
    state = _get_state()
    return None if state is None else state.config


# ---------------------------------------------------------------- decisions


def _key_matches(config: ChaosConfig, key: str) -> bool:
    return not config.only_keys or any(s in key for s in config.only_keys)


def _should(
    state: _ChaosState,
    site: str,
    key: str,
    rate: float,
    attempt: int = 0,
    counted: bool = False,
) -> bool:
    config = state.config
    if rate <= 0.0 or not _key_matches(config, key):
        return False
    if site.startswith(("worker.", "queue.")) and config.first_attempts_only > 0:
        if attempt >= config.first_attempts_only:
            return False
    if counted and config.max_per_key > 0:
        if state.counts.get((site, key), 0) >= config.max_per_key:
            return False
    if stable_unit("chaos", config.seed, site, key, attempt) >= rate:
        return False
    if counted:
        state.counts[(site, key)] = state.counts.get((site, key), 0) + 1
    return True


def _record(site: str, key: str) -> None:
    from repro import observe

    observe.incr("chaos.injected", site=site)
    observe.event("chaos", site=site, key=key)


def _is_owner() -> bool:
    owner = os.environ.get(OWNER_ENV, "")
    return owner.isdigit() and int(owner) == os.getpid()


# -------------------------------------------------------------------- sites


def on_worker_cell(key: str, attempt: int = 0) -> None:
    """Worker-cell entry hook: may raise, hard-exit, or stall.

    Called by the queue worker with the cell's key and attempt number
    before running the cell function.
    """
    state = _get_state()
    if state is None:
        return
    config = state.config
    if _should(state, "worker.crash", key, config.crash_rate, attempt):
        if not _is_owner():
            _record("worker.crash", key)
            os._exit(23)
        # In the owner process a hard exit would kill the run itself;
        # degrade the injection to a transient exception instead.
        _record("worker.crash-as-exception", key)
        raise ChaosError(f"chaos: injected crash (owner-degraded) for {key!r}")
    if _should(state, "worker.delay", key, config.delay_rate, attempt):
        _record("worker.delay", key)
        time.sleep(config.delay_seconds)
    if _should(state, "worker.exception", key, config.exception_rate, attempt):
        _record("worker.exception", key)
        raise ChaosError(
            f"chaos: injected worker exception for {key!r} (attempt {attempt})"
        )


def on_queue_task(key: str, attempt: int = 0) -> None:
    """Queue-worker hook: may hard-kill the worker mid-lease (SIGKILL).

    Called by :mod:`repro.queue.worker` after a lease was claimed and
    journaled but before the task function runs — the worst moment to
    die, because the lease is live and nobody will ever complete or fail
    it.  Exercises stale-lease reclamation end to end.  ``attempt`` is
    the task's lease number (0-based), so ``first_attempts_only=1``
    guarantees the reclaimed lease's retry survives.

    SIGKILL gives the process no chance to clean up — no atexit, no
    finally blocks, no lease release — exactly like an OOM kill or a
    host loss.  Never fires in the chaos owner process (a test or a
    serial driver would kill itself); there it degrades to a transient
    exception like the crash site does.
    """
    state = _get_state()
    if state is None:
        return
    if _should(state, "queue.kill", key, state.config.lease_kill_rate, attempt):
        if not _is_owner():
            _record("queue.kill", key)
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        _record("queue.kill-as-exception", key)
        raise ChaosError(
            f"chaos: injected lease kill (owner-degraded) for {key!r}"
        )


def on_publish(path: str | Path) -> None:
    """Post-publish hook: may tear (truncate) the just-written archive."""
    state = _get_state()
    if state is None:
        return
    path = Path(path)
    if _should(
        state, "publish.torn", path.name, state.config.torn_write_rate,
        counted=True,
    ):
        _record("publish.torn", path.name)
        tear_file(path)


def on_lock_acquired(path: str | Path) -> None:
    """Post-acquire hook: may hold the lock to starve other waiters."""
    state = _get_state()
    if state is None:
        return
    name = Path(path).name
    if _should(
        state, "lock.hold", name, state.config.lock_hold_rate, counted=True
    ):
        _record("lock.hold", name)
        time.sleep(state.config.lock_hold_seconds)


def tear_file(path: str | Path) -> None:
    """Truncate ``path`` to half its bytes: a deterministic torn write."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(len(data) // 2, 1)])
