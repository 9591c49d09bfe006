import pytest

from qgames import ewl


@pytest.fixture
def haar_batches(monkeypatch) -> list:
    """The index count of every Haar batch that qgames.ewl draws, in order."""
    calls = []
    original = ewl.haar_su2_batch

    def counting(seed, indices):
        calls.append(len(indices))
        return original(seed, indices)

    monkeypatch.setattr(ewl, "haar_su2_batch", counting)
    return calls
