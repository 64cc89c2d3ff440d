"""The ``repro serve|work|submit`` CLI surface.

End-to-end flow (submit → work → submit --wait) runs in-process with
the serial executor; transport-level coverage (curl against a live
``repro serve``) lives in the CI ``service-smoke`` job.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.report import build_report, format_report
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import CampaignStore
from repro.cli import build_parser, main
from repro.service import JobQueue

from tests.service.conftest import make_tiny_spec


@pytest.fixture
def jsonl_queue_uri(tmp_path) -> str:
    return f"jsonl:{tmp_path / 'queue.jsonl'}"


class TestArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve"],                       # --queue is required to serve
            ["work"],                        # ...and to work
            ["submit", "--name", "smoke"],   # needs --queue or --url
            ["submit", "--queue", "q.jsonl", "--url", "http://h:1",
             "--name", "smoke"],             # but not both
        ],
    )
    def test_missing_or_conflicting_target_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["work", "--queue", "q.jsonl", "--lease", "0"],
            ["work", "--queue", "q.jsonl", "--poll", "-1"],
            ["submit", "--queue", "q.jsonl", "--name", "smoke",
             "--timeout", "0"],
            ["submit", "--queue", "q.jsonl"],  # needs --name or --spec
        ],
    )
    def test_invalid_values_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_parser_defaults(self):
        args = build_parser().parse_args(["work", "--queue", "q.jsonl"])
        assert args.executor == "processes"
        assert args.lease == 60.0
        assert args.poll == 2.0
        args = build_parser().parse_args(["serve", "--queue", "q.jsonl"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321

    def test_submit_missing_spec_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "submit",
                "--queue", f"jsonl:{tmp_path / 'q.jsonl'}",
                "--spec", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            ('[{"name": "tiny"}]', "campaign spec must be a JSON object"),
            ("{not json", "campaign spec {path!r} is not valid JSON: "),
        ],
    )
    def test_submit_bad_spec_file_exits_2_like_campaign_run(
        self, tmp_path, capsys, content, message
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(content)
        code = main(
            ["submit", "--queue", f"jsonl:{tmp_path / 'q.jsonl'}",
             "--spec", str(spec_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " + message.format(path=str(spec_path)) in err
        assert "Traceback" not in err

    def test_submit_spec_file_with_defaults_keeps_its_fingerprint(
        self, jsonl_queue_uri, tmp_path, capsys
    ):
        from repro.campaign.spec import CampaignSpec

        payload = {"name": "sparse", "circuits": [["s9234", 0.05]]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        code = main(
            ["submit", "--queue", jsonl_queue_uri, "--spec", str(spec_path), "--json"]
        )
        assert code == 0
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["job"]["fingerprint"] == CampaignSpec.from_dict(payload).fingerprint()


class TestEndToEnd:
    def test_submit_work_wait_round_trip(
        self, jsonl_queue_uri, tmp_path, capsys
    ):
        spec = make_tiny_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.as_dict()))

        # Submit (no worker yet): job is queued.
        code = main(
            ["submit", "--queue", jsonl_queue_uri,
             "--spec", str(spec_path), "--json"]
        )
        assert code == 0
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["created"] is True
        fingerprint = submitted["job"]["fingerprint"]
        assert fingerprint == spec.fingerprint()

        # Resubmit dedupes onto the same job.
        code = main(
            ["submit", "--queue", jsonl_queue_uri,
             "--spec", str(spec_path), "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["created"] is False

        # Drain the queue with one in-process worker.
        code = main(
            ["work", "--queue", jsonl_queue_uri, "--executor", "serial",
             "--exit-when-idle", "--poll", "0.1", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_done"] == 1
        assert summary["n_failed"] == 0

        # submit --wait on the drained queue returns the done state.
        code = main(
            ["submit", "--queue", jsonl_queue_uri, "--spec", str(spec_path),
             "--wait", "--timeout", "30", "--poll", "0.1", "--json"]
        )
        assert code == 0
        waited = json.loads(capsys.readouterr().out)
        assert waited["job"]["state"] == "done"

        # The job's store reports byte-identically to a direct run.
        store_uri = JobQueue.open(jsonl_queue_uri).require(fingerprint).store
        direct = CampaignStore.open(str(tmp_path / "direct.jsonl"))
        CampaignRunner(spec, direct, executor="serial").run()
        assert format_report(
            build_report(spec, CampaignStore.open(store_uri)), "json"
        ) == format_report(build_report(spec, direct), "json")

    def test_submit_wait_times_out_with_exit_1(
        self, jsonl_queue_uri, tmp_path, capsys
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(make_tiny_spec().as_dict()))
        code = main(
            ["submit", "--queue", jsonl_queue_uri, "--spec", str(spec_path),
             "--wait", "--timeout", "0.3", "--poll", "0.1"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_work_reports_failed_jobs_with_exit_1(
        self, jsonl_queue_uri, capsys
    ):
        from repro.service.queue import QUEUE_SCHEMA_VERSION

        queue = JobQueue.open(jsonl_queue_uri)
        queue.backend.append(
            {
                "schema_version": QUEUE_SCHEMA_VERSION,
                "fingerprint": "badc0ffee",
                "event": "submit",
                "at_unix": 1.0,
                "spec": {"name": "broken"},
                "store": f"{jsonl_queue_uri}.results",
            }
        )
        code = main(
            ["work", "--queue", jsonl_queue_uri, "--executor", "serial",
             "--exit-when-idle", "--poll", "0.1", "--json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["n_failed"] == 1
