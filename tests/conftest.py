import pytest

import digest_cases


@pytest.fixture(scope="session")
def artifact_digests(tmp_path_factory):
    """sha256 of every artifact of the pinned runs (``digest_cases``), run once per session."""
    return digest_cases.run_cases(tmp_path_factory.mktemp("digest_cases"))


@pytest.fixture(scope="session")
def fig4_ci_run(tmp_path_factory):
    """(directory, manifest) of one ``fig4-ci`` preset run, shared by the tests that only read it.

    A test that reads it must not write into the directory.
    """
    from thzbeam import preset, run_scenario

    out = tmp_path_factory.mktemp("fig4-ci")
    return out, run_scenario(preset("fig4-ci"), out)


@pytest.fixture
def split_ffts(monkeypatch):
    """``split_ffts(cpus)``: from then on every FFT pass, whatever its size, runs as
    ``min(cpus, lines)`` line blocks, as the full-scale passes do on ``cpus`` CPUs."""
    import thzbeam.propagation as propagation

    def split(cpus: int) -> None:
        monkeypatch.setattr(propagation, "_THREADED_SAMPLES", 1)
        monkeypatch.setattr(propagation, "_cpus", lambda: cpus)

    return split
