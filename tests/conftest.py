import pytest


@pytest.fixture
def record_batches(monkeypatch):
    """``record_batches(module)`` wraps the ``resample`` that ``module``
    calls and returns a list that gets the size of every batch of draws its
    ``fit`` receives."""

    def install(module):
        sizes, real = [], module.resample

        def recording(p, K, master_seed, draw, fit, shape, threads=1):
            def fit_recorded(draws):
                sizes.append(len(draws))
                return fit(draws)
            return real(p, K, master_seed, draw, fit_recorded, shape, threads)

        monkeypatch.setattr(module, "resample", recording)
        return sizes

    return install
