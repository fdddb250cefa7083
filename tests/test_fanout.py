"""Countries and Monte Carlo trials fanned out over forked workers: the
same bytes for any worker count, the first error in item order, and no
process left behind."""
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fiscalsvar.cli as cli_mod
from conftest import pin_workers
from fiscalsvar.bootstrap import BootstrapConfig
from fiscalsvar.cli import country_seed, main
from fiscalsvar.dgp import RecoveryConfig, monte_carlo_recovery, reference_spec
from fiscalsvar.errors import DecompositionError, InferenceError
from fiscalsvar.fanout import fan_out, ranges, usable_cpus

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_CONFIG = ROOT / "data" / "v4_config.json"


@pytest.fixture(autouse=True)
def bounded_and_reaped():
    """Fail a test that hangs for a minute, and one that leaves a child
    process behind, running or not yet reaped."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bundle(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def dgp_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dgp") / "dgp.json"
        path.write_text(json.dumps(reference_spec(seed=3).to_dict()), encoding="utf-8")
        return path

    def test_estimate_bundle(self, tmp_path, monkeypatch):
        bundles = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            assert main(["estimate", "--config", str(SNAPSHOT_CONFIG), "--out", str(out),
                         "--reps", "30", "--seed", "4"]) == 0
            bundles.append(bundle(out))
        assert len(bundles[0]) == 19
        assert bundles[1] == bundles[0] and bundles[2] == bundles[0]

    def test_montecarlo_recovery_csv(self, tmp_path, monkeypatch, dgp_path):
        files = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            out = tmp_path / f"o{workers}"
            assert main(["montecarlo", "--config", str(dgp_path), "--reps", "50",
                         "--out", str(out)]) == 0
            files.append((out / "recovery.csv").read_bytes())
        assert files[1] == files[0] and files[2] == files[0]

    def test_coverage_report(self, monkeypatch):
        config = RecoveryConfig(bootstrap=BootstrapConfig(replications=30))
        reports = []
        for workers in (1, 2, 3):
            pin_workers(monkeypatch, workers)
            reports.append(monte_carlo_recovery(reference_spec(seed=6), 7, config))
        want = reports[0]
        assert want.failures == 0 and set(want.coverage) == {68, 90}
        for got in reports[1:]:
            for name in ("analytic", "estimates", "median_bias", "median_abs_error", "rmse"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert (got.n_trials, got.failures) == (want.n_trials, want.failures)
            assert got.coverage.keys() == want.coverage.keys()
            for level, cov in want.coverage.items():
                assert got.coverage[level].tobytes() == cov.tobytes(), level

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_one_cpu_and_every_cpu_write_the_same_bytes(self, tmp_path):
        # the real affinity mask, which pin_workers stands in for: a child
        # held to one CPU runs the plain loop, an unrestricted one a worker
        # per usable CPU
        dgp_path = tmp_path / "dgp.json"
        dgp_path.write_text(json.dumps(reference_spec().to_dict()), encoding="utf-8")
        paths = [str(ROOT / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        cpu = min(os.sched_getaffinity(0))

        def python(argv, one_cpu):
            preexec = (lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None
            return subprocess.run([sys.executable, *argv], env=env, preexec_fn=preexec,
                                  capture_output=True, text=True, check=True).stdout

        probe = ["-c", "from fiscalsvar.fanout import usable_cpus; print(usable_cpus())"]
        assert python(probe, one_cpu=True) == "1\n"
        bundles = {}
        for one_cpu in (True, False):
            for command, config, reps in (("estimate", SNAPSHOT_CONFIG, "100"),
                                          ("montecarlo", dgp_path, "200")):
                out = tmp_path / f"{command}_{one_cpu}"
                python(["-m", "fiscalsvar", command, "--config", str(config), "--reps", reps,
                        "--out", str(out)], one_cpu)
                bundles[command, one_cpu] = bundle(out)
        assert len(bundles["estimate", True]) == 19
        assert bundles["estimate", True] == bundles["estimate", False]
        assert list(bundles["montecarlo", True]) == ["recovery.csv"]
        assert bundles["montecarlo", True] == bundles["montecarlo", False]


class TestCountryErrors:
    @pytest.mark.parametrize(
        "workers, failing, reported",
        [
            # runs cz hu | pl sk: pl fails in the child
            (2, ("pl",), "pl"),
            # runs cz hu | pl | sk: both children fail, pl first
            (3, ("pl", "sk"), "pl"),
            # hu fails in this process before the child's sk is read
            (2, ("hu", "sk"), "hu"),
        ],
    )
    def test_first_failing_country_in_config_order(self, tmp_path, capsys, monkeypatch,
                                                   workers, failing, reported):
        pin_workers(monkeypatch, workers)
        real = cli_mod.bootstrap_inference
        seeds = {country_seed(5, code) for code in failing}

        def fails(panel, boot, model):
            if boot.seed in seeds:
                raise InferenceError("3 of 30 replications failed (limit 5%)")
            return real(panel, boot, model)

        monkeypatch.setattr(cli_mod, "bootstrap_inference", fails)
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(SNAPSHOT_CONFIG), "--out", str(out),
                     "--reps", "30", "--seed", "5"]) == 4
        err = capsys.readouterr().err
        assert err == (f"estimation error: country {reported}: "
                       "3 of 30 replications failed (limit 5%)\n")
        assert not out.exists()


class TestFanOut:
    def test_ranges_contiguous_and_even(self):
        assert ranges(10, 3) == [range(0, 4), range(4, 7), range(7, 10)]
        assert ranges(6, 2) == [range(0, 3), range(3, 6)]
        assert ranges(2, 5) == [range(0, 1), range(1, 2)]
        assert ranges(0, 3) == [range(0, 0)]

    def test_usable_cpus_follows_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_order_from_contiguous_runs(self, monkeypatch, workers):
        # 7 items: the first run in this process, each other in its own child
        pin_workers(monkeypatch, workers)
        got = fan_out(lambda x: (x * x, os.getpid()), range(7))
        assert [value for value, _ in got] == [x * x for x in range(7)]
        pids = [pid for _, pid in got]
        runs = ranges(7, workers)
        assert pids[:len(runs[0])] == [os.getpid()] * len(runs[0])
        assert all(len({pids[i] for i in r}) == 1 for r in runs)
        assert len({pids[r.start] for r in runs}) == len(runs)

    def test_no_fork_is_the_plain_loop(self, monkeypatch):
        pin_workers(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        assert fan_out(lambda x: (x, os.getpid()), range(5)) == [(x, os.getpid())
                                                                for x in range(5)]

    def test_first_exception_in_item_order(self, monkeypatch):
        # items 1 and 2 fail in two children; item 1's error is raised
        pin_workers(monkeypatch, 3)

        def fn(x):
            if x:
                time.sleep(0.2 * (2 - x))  # item 2's child fails first
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="^item 1$"):
            fan_out(fn, range(3))

    def test_error_keeps_type_and_attributes(self, monkeypatch):
        pin_workers(monkeypatch, 2)

        def fn(x):
            if x:
                raise DecompositionError("not positive definite at pivot 3", pivot=3)
            return x

        with pytest.raises(DecompositionError, match="^not positive definite at pivot 3$") as info:
            fan_out(fn, range(2))
        assert info.value.pivot == 3

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_own_error_kills_the_children(self, monkeypatch, error):
        pin_workers(monkeypatch, 3)

        def fn(x):
            if x:
                time.sleep(60)
            raise error

        start = time.monotonic()
        with pytest.raises(error):
            fan_out(fn, range(3))
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize(
        "end, status",
        [
            (lambda: os._exit(1), "exited with status 1"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
            # a result that cannot be pickled
            (lambda: (lambda: None), "exited with status 1"),
        ],
        ids=["exit", "killed", "unpicklable"],
    )
    def test_child_without_a_result_raises(self, monkeypatch, end, status):
        pin_workers(monkeypatch, 3)
        message = rf"^worker process \d+ {status} without a result$"
        with pytest.raises(RuntimeError, match=message):
            fan_out(lambda x: end() if x == 1 else x, range(3))

    def test_items_and_function_are_not_pickled(self, monkeypatch):
        # they reach the children through the fork; lambdas cannot be pickled
        pin_workers(monkeypatch, 2)
        assert fan_out(lambda f: f(), [lambda: 1, lambda: 2]) == [1, 2]
