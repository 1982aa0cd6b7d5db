import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Imported before any test module loads numpy, so the in-process suite runs
# under the package's one-thread BLAS pin, as the command-line tool does.
import facemark  # noqa: E402, F401
import facemark.tensorgrad as tg  # noqa: E402
import pytest  # noqa: E402


class _CountingPool(ThreadPoolExecutor):
    """A real pool that counts the ranges handed to it."""

    def __init__(self):
        super().__init__(thread_name_prefix="counting")
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def conv_workers(monkeypatch):
    """Set the core count conv2d and map_ordered read; return the pool they then submit to.

    The interpreter switches threads as often as it can meanwhile, so
    workers interleave far more finely than they would in a real run.
    """
    pool = _CountingPool()
    monkeypatch.setattr(tg, "_POOL", pool)

    def set_workers(count):
        monkeypatch.setattr(tg, "_usable_cores", lambda: count)
        return pool

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield set_workers
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
