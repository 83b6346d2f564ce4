import sys
from pathlib import Path

from scenario_corpus import FIXTURES, bases

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from corpus_census import COMPLETE, NOT_COMPLETE, classify  # noqa: E402


def test_every_corpus_base_runs_to_a_report_and_each_fixture_completes():
    outcomes = {name: classify(text)[0] for name, text in bases().items()}
    assert all(outcome in (COMPLETE, NOT_COMPLETE) for outcome in outcomes.values()), outcomes
    assert {name: outcomes[name] for name in FIXTURES} == dict.fromkeys(FIXTURES, COMPLETE)
