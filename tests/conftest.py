import pytest


@pytest.fixture
def record_batches(monkeypatch):
    """``record_batches(module)`` wraps the ``resample`` that ``module``
    calls and returns a list that gets the size of every batch its
    ``batch`` callback receives."""

    def install(module):
        sizes, real = [], module.resample

        def recording(p, K, master_seed, batch, entries, threads=1):
            def batch_recorded(start, gens):
                sizes.append(len(gens))
                return batch(start, gens)
            return real(p, K, master_seed, batch_recorded, entries, threads)

        monkeypatch.setattr(module, "resample", recording)
        return sizes

    return install
