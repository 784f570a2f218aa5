import pytest


@pytest.fixture
def record_batches(monkeypatch):
    """``record_batches(module)`` wraps the ``resample`` that ``module``
    calls and returns a list that gets the size of every batch its ``draw``
    receives."""

    def install(module):
        sizes, real = [], module.resample

        def recording(p, K, master_seed, draw, fit, entries, threads=1, designs=None):
            def draw_recorded(gens):
                sizes.append(len(gens))
                return draw(gens)
            return real(p, K, master_seed, draw_recorded, fit, entries, threads, designs)

        monkeypatch.setattr(module, "resample", recording)
        return sizes

    return install
