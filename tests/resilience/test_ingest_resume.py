"""Crash-safe ingest: kill/resume bit-identity, journal guards, verify.

The in-process half covers every injection site with the ``raise``
action (fast, runs on each fault site).  The subprocess half is the
real thing: a child ``ingest`` is ``SIGKILL``\\ ed mid-flight by the
``REPRO_FAULTS`` environment hook — no ``finally``, no ``atexit`` —
and a second child resumes it; the resulting store must be
byte-for-byte identical to an uninterrupted ingest.
"""

from __future__ import annotations

import filecmp
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import FaultInjected, StoreError
from repro.graphs.edgestore import (
    INGEST_SUFFIX,
    STAGING_SUFFIX,
    EdgeStoreWriter,
    ingest_arrays,
    verify_store,
)
from repro.resilience import FaultPlan, injecting

N_NODES = 400
N_ARCS = 5_000
CHUNK_ARCS = 1_000

#: every injection site on the ingest path, armed at an occurrence the
#: workload above actually reaches (5 runs, multi-chunk merge, commit)
KILL_SITES = [
    "edgestore.run.spill@3",
    "edgestore.run.journal@2",
    "edgestore.merge.chunk@1",
    "edgestore.csc.chunk@1",
    "edgestore.commit@1",
]


def _arcs(seed: int = 42):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N_NODES, size=N_ARCS)
    dst = rng.integers(0, N_NODES, size=N_ARCS)
    weight = rng.integers(1, 9, size=N_ARCS).astype(np.float64)
    return src, dst, weight


def _ingest(path, resume: bool = False):
    src, dst, weight = _arcs()
    return ingest_arrays(
        path, src, dst, weight,
        n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS, resume=resume,
    )


def assert_stores_identical(a: Path, b: Path) -> None:
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("baseline") / "store"
    _ingest(path)
    return path


class TestInProcessFaults:
    @pytest.mark.parametrize("site", KILL_SITES)
    def test_raise_then_resume_is_bit_identical(
        self, site, tmp_path, baseline
    ):
        path = tmp_path / "store"
        with injecting(FaultPlan.from_spec(site)):
            with pytest.raises(FaultInjected):
                _ingest(path)
        # the interrupted attempt left work state, never a final store
        assert not path.exists()
        assert path.with_name(path.name + INGEST_SUFFIX).exists()
        store = _ingest(path, resume=True)
        assert store.n_arcs > 0
        assert_stores_identical(path, baseline)
        # resume cleaned its scratch space behind it
        assert not path.with_name(path.name + INGEST_SUFFIX).exists()
        assert not path.with_name(path.name + STAGING_SUFFIX).exists()

    def test_two_consecutive_faults_then_resume(self, tmp_path, baseline):
        path = tmp_path / "store"
        for spec in ("edgestore.run.spill@2", "edgestore.merge.chunk@1"):
            with injecting(FaultPlan.from_spec(spec)):
                with pytest.raises(FaultInjected):
                    _ingest(path, resume=path.with_name(
                        path.name + INGEST_SUFFIX).exists())
        assert_stores_identical(
            _ingest(path, resume=True).path, baseline
        )


class TestJournalGuards:
    def test_resume_without_journal_is_an_error(self, tmp_path):
        with pytest.raises(StoreError, match="nothing to resume"):
            _ingest(tmp_path / "fresh", resume=True)

    def test_resume_with_mismatched_parameters(self, tmp_path):
        path = tmp_path / "store"
        with injecting(FaultPlan.from_spec("edgestore.run.spill@2")):
            with pytest.raises(FaultInjected):
                _ingest(path)
        src, dst, weight = _arcs()
        with pytest.raises(StoreError, match="journal"):
            ingest_arrays(
                path, src, dst, weight,
                n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS // 2, resume=True,
            )

    def test_replay_chunk_straddling_frontier(self, tmp_path):
        path = tmp_path / "store"
        src, dst, weight = _arcs()
        writer = EdgeStoreWriter(
            path, n_nodes=N_NODES, chunk_arcs=500
        )
        writer.append(src[:500], dst[:500], weight[:500])
        writer.append(src[500:1000], dst[500:1000], weight[500:1000])
        # abandon the writer: 1000 arcs are journaled
        resumed = EdgeStoreWriter(
            path, n_nodes=N_NODES, chunk_arcs=500, resume=True
        )
        resumed.append(src[:700], dst[:700], weight[:700])
        with pytest.raises(StoreError, match="straddles"):
            resumed.append(src[700:1400], dst[700:1400], weight[700:1400])

    def test_finalize_with_replay_incomplete(self, tmp_path):
        path = tmp_path / "store"
        with injecting(FaultPlan.from_spec("edgestore.merge.chunk@1")):
            with pytest.raises(FaultInjected):
                _ingest(path)
        resumed = EdgeStoreWriter(
            path, n_nodes=N_NODES, chunk_arcs=CHUNK_ARCS, resume=True
        )
        with pytest.raises(StoreError, match="replay incomplete"):
            resumed.finalize()


class TestVerifyStore:
    def test_intact_store_report(self, baseline):
        report = verify_store(baseline)
        assert report["n_nodes"] == N_NODES
        assert report["checksums_verified"] is True
        assert len(report["checked"]) == 7

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            verify_store(tmp_path / "nope")

    def test_bitflip_detected_by_checksum(self, tmp_path):
        path = tmp_path / "store"
        _ingest(path)
        target = path / "weight.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF  # flip data bits, leave the npy header alone
        target.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="checksum mismatch"):
            verify_store(path)

    @pytest.mark.parametrize("stem", ["weight", "csc_data"])
    def test_non_finite_weight_detected(self, tmp_path, stem):
        path = tmp_path / "store"
        _ingest(path)
        weights = np.load(path / f"{stem}.npy", mmap_mode="r+")
        weights[3] = np.inf
        weights.flush()
        del weights
        with pytest.raises(
            StoreError, match=rf"{stem}\.npy: entry 3 holds non-finite"
        ):
            verify_store(path)

    def test_truncation_detected_structurally(self, tmp_path):
        path = tmp_path / "store"
        _ingest(path)
        src, dst, weight = _arcs()
        np.save(path / "dst.npy", np.asarray([0, 1], dtype=np.int32))
        with pytest.raises(StoreError, match="entries"):
            verify_store(path)


# ----------------------------------------------------------------------
# the real thing: SIGKILL a child ingest, resume in a second child
# ----------------------------------------------------------------------
CHILD_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.resilience import install_from_env
    install_from_env()

    from repro.graphs.edgestore import ingest_arrays

    path, resume = sys.argv[1], sys.argv[2] == "resume"
    rng = np.random.default_rng(42)
    src = rng.integers(0, {n}, size={m})
    dst = rng.integers(0, {n}, size={m})
    weight = rng.integers(1, 9, size={m}).astype(np.float64)
    ingest_arrays(
        path, src, dst, weight,
        n_nodes={n}, chunk_arcs={chunk}, resume=resume,
    )
    """
).format(n=N_NODES, m=N_ARCS, chunk=CHUNK_ARCS)


def _run_child(path: Path, *, faults: str = "", resume: bool = False):
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), env.get("PYTHONPATH", "")]
    )
    if faults:
        env["REPRO_FAULTS"] = faults
    else:
        env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT,
         str(path), "resume" if resume else "fresh"],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "site",
    ["edgestore.run.spill@3", "edgestore.merge.chunk@1",
     "edgestore.commit@1"],
)
def test_sigkill_then_resume_is_bit_identical(site, tmp_path, baseline):
    path = tmp_path / "store"
    killed = _run_child(path, faults=f"{site}=kill")
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert not path.exists()

    resumed = _run_child(path, resume=True)
    assert resumed.returncode == 0, resumed.stderr

    assert_stores_identical(path, baseline)
    verify_store(path)
