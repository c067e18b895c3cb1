"""One ``run_fuzz(50, seed=0)`` for the whole session.

The clean-run test and the expectation-matrix test judge the same fifty
rounds, so they share one run: the fixture attaches the ``(row,
model)`` recorder to the fuzzer's evaluator and returns the report, the
pairs it evaluated and the artifact directory.
"""

from types import SimpleNamespace

import pytest

from repro.fuzz import fuzzer as fz


@pytest.fixture(scope="session")
def fuzz_fifty(tmp_path_factory):
    seen = set()
    evaluate = fz.evaluate

    def recording(outcome, case, *, model, **kw):
        verdicts = evaluate(outcome, case, model=model, **kw)
        seen.update((row.name, model) for row, _ in verdicts)
        return verdicts

    artifacts = tmp_path_factory.mktemp("fuzz-artifacts")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fz, "evaluate", recording)
        report = fz.run_fuzz(50, seed=0, artifact_dir=str(artifacts))
    return SimpleNamespace(report=report, seen=seen, artifact_dir=artifacts)
